import csv
import math
import os
import stat
import warnings

import numpy as np
import pytest

from qkdbench import decoy, timetag
from qkdbench.cli import main
from qkdbench.config import load_config


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSweep:
    def test_full_range_and_anchor(self, bench_config_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--config", str(bench_config_file),
                "--out", str(out),
                "--atten-min", "0", "--atten-max", "40", "--atten-step", "1",
                "--gain-convention", "attenuation-only",
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 41
        assert list(rows[0]) == decoy.SWEEP_CSV_HEADER
        six = next(r for r in rows if float(r["attenuation_db"]) == 6.0)
        assert 2.5e6 <= float(six["lbskr_bps"]) <= 4.5e6

    def test_single_point(self, bench_config_file, tmp_path):
        out = tmp_path / "one.csv"
        code = main(
            ["sweep", "--config", str(bench_config_file), "--out", str(out),
             "--atten-min", "6", "--atten-max", "6", "--atten-step", "1"]
        )
        assert code == 0
        assert len(read_csv_rows(out)) == 1

    def test_missing_config(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_cutoff_printed(self, bench_config_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(bench_config_file), "--out", str(out),
              "--atten-min", "0", "--atten-max", "40", "--atten-step", "1"])
        assert "cutoff" in capsys.readouterr().out

    def test_text_format(self, bench_config_file, tmp_path):
        out = tmp_path / "sweep.txt"
        code = main(
            ["sweep", "--config", str(bench_config_file), "--out", str(out),
             "--atten-min", "6", "--atten-max", "8", "--atten-step", "1", "--format", "text"]
        )
        assert code == 0
        text = out.read_text()
        assert text.count("attenuation_db = ") == 3
        assert "lbskr_bps = " in text

    def test_unwritable_output_is_io_error(self, bench_config_file, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file, not a directory")
        code = main(
            ["sweep", "--config", str(bench_config_file), "--out", str(blocker / "x.csv"),
             "--atten-min", "6", "--atten-max", "6", "--atten-step", "1"]
        )
        assert code == 3
        assert "I/O error" in capsys.readouterr().err


class TestSimulate:
    def test_reproducible_outputs(self, bench_config_file, tmp_path):
        args = ["simulate", "--config", str(bench_config_file), "--frames", "50000", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a.summary.txt").read_bytes()
        b = (tmp_path / "b.summary.txt").read_bytes()
        assert a == b

    def test_emit_ttags_products(self, bench_config_file, tmp_path):
        code = main(
            ["simulate", "--config", str(bench_config_file), "--frames", "50000",
             "--seed", "6", "--out", str(tmp_path / "run"), "--emit-ttags"]
        )
        assert code == 0
        assert (tmp_path / "run.ttag").exists()
        assert (tmp_path / "run.alice.csv").exists()
        assert (tmp_path / "run.sidecar.txt").exists()
        sidecar = (tmp_path / "run.sidecar.txt").read_text()
        assert "period_ticks = 128" in sidecar
        assert "channels = 0:H 1:V 2:D 3:A\n" in sidecar

    def test_summary_values_are_plain_numbers(self, bench_config_file, tmp_path):
        main(
            ["simulate", "--config", str(bench_config_file), "--frames", "10000",
             "--seed", "4", "--out", str(tmp_path / "run")]
        )
        fields = dict(line.split(" = ") for line in (tmp_path / "run.summary.txt").read_text().splitlines())
        assert "gain_signal" in fields and "qber_decoy2" in fields
        assert int(fields["frames"]) == 10000
        for value in fields.values():
            float(value)  # a numpy repr such as np.int64(7) would raise

    def test_zero_frames(self, bench_config_file, tmp_path):
        code = main(
            ["simulate", "--config", str(bench_config_file), "--frames", "0",
             "--seed", "1", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_random_seed_printed(self, bench_config_file, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(bench_config_file), "--frames", "1000",
             "--out", str(tmp_path / "r")]
        )
        assert code == 0
        assert "seed = " in capsys.readouterr().out

    def test_mode_follows_umask(self, bench_config_file, tmp_path):
        old = os.umask(0o022)
        try:
            code = main(
                ["simulate", "--config", str(bench_config_file), "--frames", "20000",
                 "--seed", "3", "--out", str(tmp_path / "run"), "--emit-ttags"]
            )
        finally:
            os.umask(old)
        assert code == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.glob("run*")}
        suffixes = ("summary.txt", "ttag", "alice.csv", "sidecar.txt")
        assert modes == {f"run.{suffix}": 0o644 for suffix in suffixes}

    def test_delta_against_exact_table(self, bench_config_file, tmp_path, capsys):
        # the delta is taken against the exact click probability; the paper
        # gain Y0 + 1 - e^(-eta m) is printed next to it
        argv = ["simulate", "--config", str(bench_config_file), "--frames", "1000", "--seed", "2"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("Q_")]
        source, link, _ = load_config(bench_config_file)
        eta = decoy.transmittance(link)
        paper = decoy.channel_observables(source, link, "full-budget")
        for line, mean, q_paper in zip(lines, (0.5, 0.066, 0.002), (paper.q_mu, paper.q_nu1, paper.q_nu2)):
            fields = dict(f.split("=") for f in line.split()[1:] if "=" in f)
            exact = 1 - (1 - link.background_yield) * math.exp(-eta * mean)
            assert float(fields["exact"]) == pytest.approx(exact, rel=1e-6)
            assert float(fields["paper"]) == pytest.approx(q_paper, rel=1e-6)
            assert float(fields["exact"]) != float(fields["paper"])
        assert len(lines) == 3

    def test_alice_log_rows_are_frames(self, bench_config_file, tmp_path):
        main(
            ["simulate", "--config", str(bench_config_file), "--frames", "1000",
             "--seed", "4", "--out", str(tmp_path / "run"), "--emit-ttags"]
        )
        lines = (tmp_path / "run.alice.csv").read_bytes().split(b"\n")
        assert lines[0] == b"bit,basis,class" and lines[-1] == b""
        assert len(lines) == 1000 + 2


class TestAnalyzeTtags:
    @pytest.fixture
    def simulated(self, bench_config_file, tmp_path):
        main(
            ["simulate", "--config", str(bench_config_file), "--frames", "400000",
             "--seed", "9", "--out", str(tmp_path / "run"), "--emit-ttags"]
        )
        return tmp_path / "run.ttag", tmp_path / "run.alice.csv"

    def test_pipeline_qber(self, bench_config_file, simulated, capsys):
        ttag, alice = simulated
        code = main(
            ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(ttag),
             "--alice-log", str(alice), "--window-ns", "1", "--seed", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("Q_signal"))
        qber_mu = float(line.split("qber_signal = ")[1])
        # analytic comparator with the 13/128 gated background
        from qkdbench.config import load_config
        from dataclasses import replace

        source, link, _ = load_config(bench_config_file)
        link = replace(link, background_suppression=13 / 128)
        obs = decoy.channel_observables(source, link, "full-budget")
        # generous band: the small fixture has ~6k sifted signal bits
        assert abs(qber_mu - obs.e_mu) <= 4 * math.sqrt(obs.e_mu / 6000)

    @pytest.mark.parametrize("window_ns", ["10", "1e308"])
    def test_wide_window_matches_ungated(self, bench_config_file, simulated, capsys, window_ns):
        ttag, alice = simulated
        code = main(
            ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(ttag),
             "--alice-log", str(alice), "--window-ns", window_ns, "--seed", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rejected = 0" in out

    def test_random_seed_printed(self, bench_config_file, simulated, capsys):
        ttag, alice = simulated
        code = main(
            ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(ttag), "--alice-log", str(alice)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("seed = ")

    def test_log_without_a_class_exits_2(self, bench_config_file, simulated, tmp_path, capsys):
        ttag, alice = simulated
        signal_only = tmp_path / "signal_only.alice.csv"
        signal_only.write_text(alice.read_text().replace("decoy1", "signal").replace("decoy2", "signal"))
        code = main(
            ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(ttag),
             "--alice-log", str(signal_only), "--seed", "11"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no pulses sent for at least one intensity class\n"

    def test_empty_stream(self, bench_config_file, tmp_path, capsys):
        empty = tmp_path / "empty.ttag"
        empty.write_bytes(b"")
        alice = tmp_path / "alice.csv"
        alice.write_text("bit,basis,class\n0,Z,signal\n")
        code = main(
            ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(empty),
             "--alice-log", str(alice)]
        )
        assert code == 2
        assert "no records" in capsys.readouterr().err

    def test_truncated_stream(self, bench_config_file, tmp_path):
        bad = tmp_path / "bad.ttag"
        bad.write_bytes(b"\x01\x02\x03")
        alice = tmp_path / "alice.csv"
        alice.write_text("bit,basis,class\n0,Z,signal\n")
        code = main(
            ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(bad),
             "--alice-log", str(alice)]
        )
        assert code == 2


class TestSidechannel:
    def test_identical_profiles_only_spatial(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        lines = ["axis,stateH,stateV,stateD,stateA"]
        for i in range(32):
            lines.append(f"{i * 1e-12},3,3,3,3")
        path.write_text("\n".join(lines) + "\n")
        code = main(["sidechannel", "--profiles", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        total = float(next(l for l in out.splitlines() if "total" in l).split(" = ")[1])
        assert total == pytest.approx(1e-5, rel=1e-9)

    def test_synth_with_pedestals_reduces_rate(self, bench_config_file, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(bench_config_file), "--out", str(sweep_csv),
              "--atten-min", "6", "--atten-max", "6", "--atten-step", "1",
              "--gain-convention", "attenuation-only"])
        capsys.readouterr()
        code = main(
            ["sidechannel", "--synth", "--pedestals", "0.05,0,0,0.05",
             "--sweep-csv", str(sweep_csv), "--attenuation-db", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(
            l.split(" = ") for l in out.splitlines() if " = " in l and not l.startswith("seed")
        )
        total = float(lines["leakage_total_bits_per_pulse"])
        lbskr = float(lines["lbskr_bps"])
        adjusted = float(lines["leakage_adjusted_bps"])
        assert total > 1e-2
        assert 0 < adjusted < lbskr

    def test_ambiguous_inputs(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("axis,stateH,stateV,stateD,stateA\n0,1,1,1,1\n")
        code = main(["sidechannel", "--profiles", str(path), "--synth"])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_no_input(self):
        assert main(["sidechannel"]) == 2

    def test_malformed_profiles(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("axis,stateH\n0,1\n")
        assert main(["sidechannel", "--profiles", str(path)]) == 2

    def test_off_grid_attenuation_reports_row_used(self, bench_config_file, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(bench_config_file), "--out", str(sweep_csv),
              "--atten-min", "0", "--atten-max", "40", "--atten-step", "10"])
        capsys.readouterr()
        out = tmp_path / "audit.txt"
        code = main(["sidechannel", "--synth", "--sweep-csv", str(sweep_csv),
                     "--attenuation-db", "500", "--out", str(out)])
        assert code == 0
        assert "attenuation_db = 40\n" in capsys.readouterr().out
        assert "attenuation_db = 40.0\n" in out.read_text()

    def test_budget_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "audit.txt"
        assert main(["sidechannel", "--synth", "--spatial-bits", "2e-5", "--out", str(out)]) == 0
        keys = [line.split(" = ")[0] for line in out.read_text().splitlines()]
        assert keys == [f"leakage_{key}_bits_per_pulse" for key in ("temporal", "spectral", "spatial", "total")]
        assert "leakage_spatial_bits_per_pulse = 2e-05\n" in out.read_text()
        assert capsys.readouterr().out == out.read_text()


class TestOptimize:
    def test_smoke(self, bench_config_file, capsys):
        code = main(
            ["optimize", "--config", str(bench_config_file),
             "--mu-grid", "0.25,0.5,0.75,1.0", "--nu1-grid", "0.05,0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        mu = float(next(l for l in out.splitlines() if l.startswith("mu_opt")).split(" = ")[1])
        assert 0.25 <= mu <= 1.0


class TestMalformedInput:
    @pytest.fixture
    def inputs(self, bench_config_file, tmp_path):
        ttag = tmp_path / "two.ttag"
        ttag.write_bytes(timetag.encode(timetag.TimeTagStream(np.array([37, 165], dtype=np.uint64), np.array([0, 1]))))
        alice = tmp_path / "good.alice.csv"
        alice.write_text("bit,basis,class\n0,Z,signal\n1,Z,decoy1\n")
        bad_basis = tmp_path / "bad.alice.csv"
        bad_basis.write_text("bit,basis,class\n0,Q,signal\n")
        old_log = tmp_path / "old.alice.csv"
        old_log.write_text("frame,bit,basis,class\n0,0,Z,signal\n1,1,Z,decoy1\n")
        tiny_nu1 = tmp_path / "tiny_nu1.cfg"
        text = bench_config_file.read_text()
        tiny_nu1.write_text(text.replace("nu1 = 0.066", "nu1 = 1e-320").replace("nu2 = 0.002", "nu2 = 0.0"))
        bad_sweep = tmp_path / "bad_sweep.csv"
        bad_sweep.write_text("x,y\n1,2\n")
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(bench_config_file), "--out", str(sweep)]) == 0
        for name, state_h in (("zero_profile", 0.0), ("huge_profile", 1e308)):
            rows = "".join(f"{i}e-12,{state_h!r},1.0,2.0,1.0\n" for i in range(8))
            (tmp_path / f"{name}.csv").write_text("axis,stateH,stateV,stateD,stateA\n" + rows)
        return {
            "zero_profile": str(tmp_path / "zero_profile.csv"),
            "huge_profile": str(tmp_path / "huge_profile.csv"),
            "cfg": str(bench_config_file),
            "tiny_nu1": str(tiny_nu1),
            "out": str(tmp_path / "out"),
            "ttag": str(ttag),
            "alice": str(alice),
            "missing": str(tmp_path / "nope.csv"),
            "bad_basis": str(bad_basis),
            "old_log": str(old_log),
            "bad_sweep": str(bad_sweep),
            "sweep": str(sweep),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            "optimize --config {cfg} --mu-grid 0.5,abc",
            "optimize --config {cfg} --mu-grid 0.1 --nu1-grid 0.5",
            "sidechannel --synth --pedestals 0,abc,0,0",
            "sidechannel --synth --sweep-csv {bad_sweep}",
            "sweep --config {cfg} --out {out} --atten-min nan",
            "sweep --config {cfg} --out {out} --atten-min -100 --atten-max 0",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {missing}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {bad_basis}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {alice} --window-ns nan",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {alice}",
            "simulate --config {cfg} --frames 100 --seed 1 --out {out} --emit-ttags --phase-ticks -1",
            "simulate --config {cfg} --frames 100 --seed 1 --out {out} --emit-ttags --phase-ticks 128",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {old_log}",
            "sweep --config {cfg} --out {out} --atten-min abc",
            "simulate --config {cfg} --seed 1 --out {out}",
            "sidechannel --synth --sweep-csv {sweep} --attenuation-db nan",
            "sidechannel --synth --spatial-bits -1",
            "sidechannel --synth --spatial-bits nan",
            "sidechannel --synth --fwhm-ps nan",
            "sidechannel --synth --tbp inf",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {alice} --window-ns inf",
            "sweep --config {cfg} --out {out} --atten-max 1e308 --atten-step 1e-308",
            "simulate --config {cfg} --frames 100 --out {out} --emit-ttags --phase-ticks 200",
            "sidechannel --synth --sweep-csv {missing}",
            "sidechannel --synth --fwhm-ps 1e300",
            "sidechannel --synth --fwhm-ps 1e-300",
            "sidechannel --synth --tbp 1e300",
            "sidechannel --synth --tbp 1e200",
            "sidechannel --synth --shifts-ps 1e300,0,0,0",
            "sidechannel --synth --pedestals 1e308,0,0,0",
            "sidechannel --profiles {zero_profile}",
            "sidechannel --profiles {huge_profile}",
            "optimize --config {cfg} --mu-grid 0.5,0.6 --nu1-grid 1e-320,0.1",
            "sweep --config {tiny_nu1} --out {out}",
        ],
    )
    def test_exits_2_with_one_line(self, inputs, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second line
            code = main(argv.format(**inputs).split())
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == ""  # rejected before anything is printed

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--fwhm-ps", "sidechannel --synth --fwhm-ps nan"),
            ("--tbp", "sidechannel --synth --tbp inf"),
            ("--spatial-bits", "sidechannel --synth --spatial-bits nan"),
            ("--spatial-bits", "sidechannel --synth --spatial-bits -1"),
            ("--window-ns", "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {alice} --window-ns inf"),
            ("--atten-step", "sweep --config {cfg} --out {out} --atten-step -inf"),
            ("--attenuation-db", "sidechannel --synth --sweep-csv {sweep} --attenuation-db nan"),
        ],
    )
    def test_message_names_the_flag(self, inputs, flag, argv, capsys):
        assert main(argv.format(**inputs).split()) == 2
        assert flag in capsys.readouterr().err

    def test_old_format_alice_log_names_header(self, inputs, capsys):
        argv = "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {old_log}".format(**inputs)
        assert main(argv.split()) == 2
        assert "bad alice log header" in capsys.readouterr().err
