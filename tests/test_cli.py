import contextlib
import csv
import hashlib
import io
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdbench import cli, decoy, montecarlo, sidechannel, timetag
from qkdbench.cli import _write_atomic, main
from qkdbench.config import load_config


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def with_keys(config: Path, name: str, **keys) -> Path:
    """A copy of ``config``, in its directory under ``name``, with ``keys`` added."""
    path = config.parent / name
    path.write_text(config.read_text() + "".join(f"{key} = {value}\n" for key, value in keys.items()))
    return path


ROOT = Path(__file__).resolve().parent.parent


class TestSweep:
    @pytest.mark.parametrize(
        "convention, cutoff_db, digest",
        [
            ("attenuation-only", 23.7, "ea314f56d384ad46e47b592622f9a170238eca115dd500dcaea53c233e4182ef"),
            ("full-budget", 18.7, "c7ba7a143f86d5a5b4f8db3350b65deb16144034043d5d1553c48b8a860aa689"),
        ],
    )
    def test_benchmark_sweep_is_pinned(self, convention, cutoff_db, digest, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(ROOT / "configs" / "benchmark6db.cfg"), "--out", str(out),
             "--atten-min", "0", "--atten-max", "40", "--atten-step", "0.1",
             "--gain-convention", convention]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out == f"rows = 401\nqber_cutoff_db = {cutoff_db!r}\n"

    def test_grid_points_are_the_decimal_steps(self, bench_config_file, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(bench_config_file), "--out", str(out), "--atten-step", "0.1"])
        assert [row["attenuation_db"] for row in read_csv_rows(out)] == [repr(i / 10) for i in range(401)]

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
        assert list(rows[0]) == [name for name, _, _ in decoy.SWEEP_COLUMNS]
        six = next(r for r in rows if float(r["attenuation_db"]) == 6.0)
        assert 2.5e6 <= float(six["lbskr_bps"]) <= 4.5e6

    @pytest.mark.parametrize("atten_max", ["0.36", "0.3"])
    def test_last_point_does_not_pass_atten_max(self, bench_config_file, tmp_path, atten_max):
        # the point count is the exact decimal floor of (max - min) / step, plus one
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(bench_config_file), "--out", str(out), "--atten-max", atten_max]
        assert main(argv + ["--atten-step", "0.1"]) == 0
        assert [row["attenuation_db"] for row in read_csv_rows(out)] == ["0.0", "0.1", "0.2", "0.3"]

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

    @pytest.mark.parametrize("atten_max, cutoff", [("40", "19.0"), ("5", "nan")])
    def test_cutoff_printed(self, bench_config_file, tmp_path, capsys, atten_max, cutoff):
        # the first attenuation whose E_mu passes the cutoff, nan when none does
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", str(bench_config_file), "--out", str(out),
              "--atten-min", "0", "--atten-max", atten_max, "--atten-step", "1"])
        assert capsys.readouterr().out == f"rows = {int(atten_max) + 1}\nqber_cutoff_db = {cutoff}\n"

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(0, 300), points=st.integers(1, 80), step=st.integers(1, 50),
        convention=st.sampled_from(decoy.GAIN_CONVENTIONS),
    )
    @example(lo=0, points=51, step=1, convention="full-budget")  # 0-5 dB: never crosses the cutoff
    @example(lo=170, points=40, step=1, convention="full-budget")  # crosses it at 18.7 dB
    def test_cutoff_is_the_first_report_past_it(self, tmp_path_factory, lo, points, step, convention):
        # grids of tenths of a dB, ascending, some never crossing the cutoff
        out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
        config = ROOT / "configs" / "benchmark6db.cfg"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--gain-convention", convention,
                "--atten-min", repr(lo / 10), "--atten-max", repr((lo + (points - 1) * step) / 10),
                "--atten-step", repr(step / 10)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        attens = [float(row["attenuation_db"]) for row in read_csv_rows(out)]
        source, link, proto = load_config(config)
        reports = decoy.sweep(link, attens, source, proto, gain_convention=convention)
        cutoff = next((r.attenuation_db for r in reports if r.qber_cutoff_hit), math.nan)
        assert stdout.getvalue() == f"rows = {len(attens)}\nqber_cutoff_db = {cutoff!r}\n"

    def test_csv_is_the_one_format(self, bench_config_file, tmp_path, capsys):
        out = tmp_path / "sweep.txt"
        assert main(["sweep", "--config", str(bench_config_file), "--out", str(out), "--format", "text"]) == 2
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --format text\n")
        assert not out.exists()

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

    def test_lossless_link_emits_every_detection(self, bench_config_file, tmp_path, capsys):
        # a lossless link clicks at ~18 Mcps: the .ttag holds one record per detected frame, unwarned
        lossless = tmp_path / "lossless.cfg"
        text = bench_config_file.read_text().replace("attenuation_db = 6.0", "attenuation_db = 0.0")
        lossless.write_text(text.replace("setup_loss_db = 2.0", "setup_loss_db = 0.0"))
        prefix = str(tmp_path / "lossless")
        argv = ["simulate", "--config", str(lossless), "--frames", "100000", "--seed", "2", "--out", prefix]
        assert main(argv + ["--emit-ttags"]) == 0
        out = capsys.readouterr().out
        summary = dict(l.split(" = ") for l in out.splitlines())
        detected = sum(int(summary[f"detected_{label}"]) for label in timetag.CLASS_LABELS)
        assert detected / (100_000 / 1e8) > 1.5e7
        assert Path(prefix + ".ttag").stat().st_size == 8 * detected
        assert "warning:" not in out

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

    def test_simulated_s_is_exact(self, bench_config_file, tmp_path, monkeypatch):
        # frames / rate, from the inputs: a float sum over the blocks gave 3.0000000000000004e-05
        monkeypatch.setattr(montecarlo, "BLOCK_FRAMES", 1000)
        argv = ["simulate", "--config", str(bench_config_file), "--frames", "3000", "--seed", "6"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        fields = dict(line.split(" = ") for line in (tmp_path / "run.summary.txt").read_text().splitlines())
        assert fields["simulated_s"] == repr(3000 / 1e8) == "3e-05"

    def test_default_phase_at_a_16_tick_period(self, bench_config_file, tmp_path):
        # 800 MHz: the default phase, 37, is taken modulo the 16-tick period
        config = with_keys(bench_config_file, "rate_800mhz.cfg", pulse_rate_hz=8e8)
        prefix = str(tmp_path / "fast")
        argv = ["simulate", "--config", str(config), "--frames", "200000", "--seed", "3", "--out", prefix, "--emit-ttags"]
        assert main(argv) == 0
        sidecar = dict(l.split(" = ") for l in Path(prefix + ".sidecar.txt").read_text().splitlines())
        assert (sidecar["period_ticks"], sidecar["phase_ticks"]) == ("16", "5")
        stream = timetag.decode(Path(prefix + ".ttag").read_bytes())
        assert timetag.recover_phase(stream, 16).phase_ticks == 5

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

    def test_stdout_is_the_written_mapping(self, bench_config_file, tmp_path, capsys):
        argv = ["simulate", "--config", str(bench_config_file), "--frames", "1000", "--seed", "2"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out == (tmp_path / "run.summary.txt").read_text()
        keys = [line.split(" = ")[0] for line in (tmp_path / "run.summary.txt").read_text().splitlines()]
        assert keys == ["frames", "simulated_s"] + [
            f"{name}_{label}"
            for label in timetag.CLASS_LABELS
            for name in ("sent", "detected", "sifted", "errors", "gain", "gain_exact", "gain_delta",
                         "qber", "qber_exact", "qber_delta")
        ]

    def test_delta_against_exact_table(self, bench_config_file, tmp_path, capsys):
        # the delta is taken against the exact click probability, not the paper
        # gain Y0 + 1 - e^(-eta m), which counts a frame where both click twice
        argv = ["simulate", "--config", str(bench_config_file), "--frames", "1000", "--seed", "2"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        fields = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines())
        source, link, _ = load_config(bench_config_file)
        eta = decoy.transmittance(link)
        paper = decoy.channel_observables(source, link, "full-budget")
        papers = (paper.q_mu, paper.q_nu1, paper.q_nu2)
        for label, mean, q_paper in zip(timetag.CLASS_LABELS, (0.5, 0.066, 0.002), papers):
            exact = 1 - (1 - link.background_yield) * math.exp(-eta * mean)
            assert float(fields[f"gain_exact_{label}"]) == pytest.approx(exact, rel=1e-12)
            assert float(fields[f"gain_exact_{label}"]) != pytest.approx(q_paper, rel=1e-6)
            sigma = math.sqrt(exact * (1 - exact) / int(fields[f"sent_{label}"]))
            delta = (float(fields[f"gain_{label}"]) - exact) / sigma
            assert float(fields[f"gain_delta_{label}"]) == pytest.approx(delta, rel=1e-9)

    def test_signal_qber_delta_against_exact_table(self, bench_config_file, tmp_path, capsys):
        # the exact value is the signal class's sifted error rate in the outcome
        # table; the paper QBER leaves out (1 - DOP)/2
        argv = ["simulate", "--config", str(bench_config_file), "--frames", "1000", "--seed", "2"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        fields = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines())
        source, link, _ = load_config(bench_config_file)
        table = montecarlo.outcome_table(source, link)
        sifted = errors = 0.0
        for code in range(4):  # the signal class: bit | basis << 1
            bit, basis = code & 1, code >> 1
            for channel in (2 * basis, 2 * basis + 1):
                p = source.pol_probs[code] * (table[code, 1 + channel] + table[code, 5 + channel])
                sifted += p
                errors += p if channel & 1 != bit else 0.0
        exact = float(fields["qber_exact_signal"])
        assert exact == pytest.approx(errors / sifted, rel=1e-12)
        assert exact == pytest.approx(1.63145e-2, rel=1e-5)
        assert exact != pytest.approx(decoy.channel_observables(source, link, "full-budget").e_mu, rel=1e-6)
        sigma = math.sqrt(exact * (1 - exact) / int(fields["sifted_signal"]))
        delta = (float(fields["qber_signal"]) - exact) / sigma
        assert float(fields["qber_delta_signal"]) == pytest.approx(delta, rel=1e-9)

    def test_class_never_sent_has_no_exact_value(self, bench_config_file, tmp_path, capsys):
        # per-frame probabilities of a class with p = 0 are all 0: its gain is 0/0,
        # written as nan like its mc value, with no RuntimeWarning
        cfg = tmp_path / "no_decoy2.cfg"
        cfg.write_text(bench_config_file.read_text() + "p_mu = 0.85\np_nu1 = 0.15\np_nu2 = 0\n")
        argv = ["simulate", "--config", str(cfg), "--frames", "1000", "--seed", "2", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        fields = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines())
        assert [fields[key] for key in ("gain_decoy2", "gain_exact_decoy2", "gain_delta_decoy2")] == ["nan"] * 3

    def test_dark_link_runs(self, bench_config_file, tmp_path, capsys):
        # no background and no transmission: nothing clicks, every gain is exactly 0 with
        # no spread to score a pull in, and every QBER is 0/0; nothing here needs the model gain
        keys = dict(line.split(" = ") for line in bench_config_file.read_text().splitlines())
        keys.update(attenuation_db=4000, background_yield=0)
        dark = tmp_path / "dark.cfg"
        dark.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        argv = ["simulate", "--config", str(dark), "--frames", "1000", "--seed", "2", "--out", str(tmp_path / "run")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("gain_signal = 0.0", "gain_exact_signal = 0.0", "gain_delta_signal = nan", "qber_signal = nan"):
            assert line in lines

    def test_alice_log_is_the_row_table_over_the_codes(self, bench_config_file, tmp_path):
        argv = ["simulate", "--config", str(bench_config_file), "--frames", "5000", "--seed", "9", "--emit-ttags"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        source, link, proto = load_config(bench_config_file)
        code = montecarlo.run(source, link, proto, 5000, 9, emit_ttags=True, phase_ticks=37).alice_log.code
        expected = b"code\n" + b"".join(b"%x\n" % c for c in code.tolist())
        assert (tmp_path / "run.alice.csv").read_bytes() == expected

    def test_alice_log_rows_are_frames(self, bench_config_file, tmp_path):
        main(
            ["simulate", "--config", str(bench_config_file), "--frames", "1000",
             "--seed", "4", "--out", str(tmp_path / "run"), "--emit-ttags"]
        )
        lines = (tmp_path / "run.alice.csv").read_bytes().split(b"\n")
        assert lines[0] == b"code" and lines[-1] == b""
        assert len(lines) == 1000 + 2

    def test_alice_log_is_pinned(self, bench_config_file, tmp_path):
        # a log of two whole blocks and part of a third, streamed in many blocks
        # of lines, as the 16-bit lane draw gives it; the decoded codes are pinned
        # apart from the file, since they do not depend on the format
        argv = ["simulate", "--config", str(bench_config_file), "--frames", "2100000", "--seed", "7", "--emit-ttags"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        digest = hashlib.sha256((tmp_path / "run.alice.csv").read_bytes()).hexdigest()
        with open(tmp_path / "run.alice.csv", "rb") as fh:
            code = timetag.AliceLog.from_csv(fh).code
        assert code.dtype == np.uint8 and len(code) == 2_100_000
        assert hashlib.sha256(code).hexdigest() == "767903ecfeffed488444f7d4f466c3a6a126ecc01c705f05c1bc838ac6f7143b"
        assert digest == "3b2f0cccaf967a155b87f366b7312fe7c5af7d2a44754cc7ab8dd3ab0468554a"


class TestWriteAtomic:
    def test_writer_function_writes_the_file(self, tmp_path):
        _write_atomic(tmp_path / "out.bin", lambda fh: fh.write(b"abc"))
        assert (tmp_path / "out.bin").read_bytes() == b"abc"

    def test_failed_writer_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")

        def writer(fh):
            fh.write(b"x" * 100_000)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_atomic(target, writer)
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestAnalyzeTtags:
    @pytest.fixture
    def simulated(self, bench_config_file, tmp_path):
        # at 4e5 frames about a third of seeds clamp a decoy bound, and analyze-ttags then
        # prints its warning line first; seed 10 clamps neither in the 1 ns nor the open gate
        main(
            ["simulate", "--config", str(bench_config_file), "--frames", "400000",
             "--seed", "10", "--out", str(tmp_path / "run"), "--emit-ttags"]
        )
        return tmp_path / "run.ttag", tmp_path / "run.alice.csv"

    @pytest.fixture
    def open_gate(self, bench_config_file):
        return with_keys(bench_config_file, "open_gate.cfg", window_s=1e-8)  # the whole 10 ns period

    def test_analysis_is_pinned(self, tmp_path):
        # the written analysis of a 2.1e6-frame run, whose log spans three count blocks and
        # 33 read blocks: a change to how the log is read or the key counted shows in these bytes
        argv, prefix = ["--config", str(ROOT / "configs" / "benchmark6db.cfg"), "--seed", "7"], str(tmp_path / "run")
        assert main(["simulate", *argv, "--frames", "2100000", "--out", prefix, "--emit-ttags"]) == 0
        out = tmp_path / "analysis.txt"
        argv += ["--ttags", prefix + ".ttag", "--alice-log", prefix + ".alice.csv", "--out", str(out)]
        assert main(["analyze-ttags", *argv]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d50576158b74dd4c1fabd2284ed7dff200bd34ce298e87c9fa7bd66a4eee5c58"
        )

    def test_pipeline_qber(self, bench_config_file, simulated, capsys):
        ttag, alice = simulated
        config = with_keys(bench_config_file, "gate_1ns.cfg", window_s=1e-9)
        code = main(
            ["analyze-ttags", "--config", str(config), "--ttags", str(ttag),
             "--alice-log", str(alice), "--seed", "11"]
        )
        assert code == 0
        qber_mu = float(dict(l.split(" = ") for l in capsys.readouterr().out.splitlines())["e_mu"])
        # analytic comparator with the 13/128 gated background
        from dataclasses import replace

        source, link, _ = load_config(config)
        link = replace(link, background_suppression=13 / 128)
        obs = decoy.channel_observables(source, link, "full-budget")
        # generous band: the small fixture has ~6k sifted signal bits
        assert abs(qber_mu - obs.e_mu) <= 4 * math.sqrt(obs.e_mu / 6000)

    def test_wide_window_matches_ungated(self, open_gate, simulated, capsys):
        ttag, alice = simulated
        code = main(
            ["analyze-ttags", "--config", str(open_gate), "--ttags", str(ttag),
             "--alice-log", str(alice), "--seed", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rejected = 0" in out

    def test_open_gate_reproduces_simulated_gains(self, open_gate, simulated, capsys):
        # the open gate keeps every record, so each class's gain is
        # simulate's detected / sent, with sent counted from the log
        ttag, alice = simulated
        summary = dict(l.split(" = ") for l in (ttag.parent / "run.summary.txt").read_text().splitlines())
        assert int(summary["detected_signal"]) > 0
        argv = ["analyze-ttags", "--config", str(open_gate), "--ttags", str(ttag),
                "--alice-log", str(alice), "--seed", "11"]
        assert main(argv) == 0
        out = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines())
        assert out["collisions"] == "0"
        for label, key in zip(timetag.CLASS_LABELS, ("q_mu", "q_nu1", "q_nu2")):
            gain = int(summary[f"detected_{label}"]) / int(summary[f"sent_{label}"])
            assert float(out[key]) == pytest.approx(gain, rel=1e-15)

    def test_reversed_stream_warned_on_one_line(self, bench_config_file, simulated, tmp_path, capsys):
        # out-of-order ticks are analyzed as they are (no frame is shared, so no pick depends
        # on the order), and the decoder's warning is one stdout line, not a Python warning
        ttag, alice = simulated
        backwards = tmp_path / "backwards.ttag"
        backwards.write_bytes(np.frombuffer(ttag.read_bytes(), "<u8")[::-1].tobytes())
        argv = ["analyze-ttags", "--config", str(bench_config_file), "--alice-log", str(alice), "--seed", "11"]
        assert main([*argv, "--ttags", str(ttag)]) == 0
        in_order = capsys.readouterr().out
        assert "\ncollisions = 0\n" in in_order
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--ttags", str(backwards), "--out", str(tmp_path / "backwards.txt")]) == 0
        assert capsys.readouterr() == ("warning: decode: non-monotonic ticks (preserved)\n" + in_order, "")
        assert (tmp_path / "backwards.txt").read_text() == in_order

    def test_gate_is_the_sidecar_window(self, bench_config_file, tmp_path, capsys):
        # simulate writes the sidecar's window_ticks from window_s, and analyze-ttags gates with the same key
        config = with_keys(bench_config_file, "gate_04ns.cfg", window_s=0.4e-9)
        prefix = str(tmp_path / "narrow")
        argv = ["simulate", "--config", str(config), "--frames", "400000", "--seed", "9", "--out", prefix, "--emit-ttags"]
        assert main(argv) == 0
        sidecar = dict(l.split(" = ") for l in Path(prefix + ".sidecar.txt").read_text().splitlines())
        capsys.readouterr()
        argv = ["analyze-ttags", "--config", str(config), "--ttags", prefix + ".ttag",
                "--alice-log", prefix + ".alice.csv", "--seed", "11"]
        assert main(argv) == 0
        assert sidecar["window_ticks"] == "5"
        assert "\nwindow_ticks = 5\n" in capsys.readouterr().out

    def test_stdout_is_the_written_mapping(self, bench_config_file, simulated, tmp_path, capsys):
        ttag, alice = simulated
        out = tmp_path / "analysis.txt"
        argv = ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(ttag),
                "--alice-log", str(alice), "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()  # no bound is clamped, so no warning line precedes it
        assert [line.split(" = ")[0] for line in out.read_text().splitlines()] == [
            "records", "gated", "rejected", "phase_ticks", "window_ticks", "collisions", "sifted_rate_cps",
            "q_mu", "q_nu1", "q_nu2", "e_mu", "e_nu1", "e_nu2",
            "y0_est", "y1_lower", "q1_lower", "e1_upper", "rkr_bps", "lbskr_bps",
        ]

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
        signal_only.write_bytes(alice.read_bytes().translate(bytes.maketrans(b"456789ab", b"01230123")))  # class 0
        code = main(
            ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(ttag),
             "--alice-log", str(signal_only), "--seed", "11"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no pulses sent for at least one intensity class\n"

    def test_low_confidence_phase_warned(self, bench_config_file, tmp_path, capsys):
        # uniform arrivals carry no pulse-train phase; the run still completes
        rng = np.random.default_rng(0)
        frames = 200_000
        ticks = np.sort(rng.integers(0, frames * 128, size=20_000, dtype=np.uint64))
        stream = timetag.TimeTagStream(ticks, rng.integers(0, 4, len(ticks)))
        (tmp_path / "uniform.ttag").write_bytes(timetag.encode(stream))
        with open(tmp_path / "uniform.alice.csv", "wb") as fh:
            timetag.AliceLog(rng.integers(0, 12, frames, dtype=np.uint8)).to_csv(fh)
        argv = ["analyze-ttags", "--config", str(bench_config_file), "--ttags", str(tmp_path / "uniform.ttag"),
                "--alice-log", str(tmp_path / "uniform.alice.csv"), "--seed", "1", "--out", str(tmp_path / "a")]
        assert main(argv) == 0
        warning, mapping = capsys.readouterr().out.split("\n", 1)
        assert warning == "warning: low-confidence phase (contrast 1.23)"
        assert mapping == (tmp_path / "a").read_text()

    def test_empty_stream(self, bench_config_file, tmp_path, capsys):
        empty = tmp_path / "empty.ttag"
        empty.write_bytes(b"")
        alice = tmp_path / "alice.csv"
        alice.write_text("code\n0\n")
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
        alice.write_text("code\n0\n")
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

    @pytest.mark.parametrize("domain, scored", [([], 0), (["--domain", "temporal"], 0), (["--domain", "spectral"], 1)])
    def test_profiles_scored_in_their_domain(self, domain, scored, tmp_path, capsys):
        path = tmp_path / "shifted.csv"
        rows = "".join(f"{i}e-12,{1 + (i == 3)},1,1,1\n" for i in range(8))  # stateH brighter in one bin
        path.write_text("axis,stateH,stateV,stateD,stateA\n" + rows)
        assert main(["sidechannel", "--profiles", str(path), *domain]) == 0
        out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        leakage = [float(out[f"leakage_{k}_bits_per_pulse"]) for k in ("temporal", "spectral")]
        assert leakage[scored] > 0 and leakage[1 - scored] == 0

    @pytest.mark.parametrize(
        "convention, lbskr, adjusted",
        [("attenuation-only", "2.899472e+06", "2.104746e+06"), ("full-budget", "8.200912e+05", "5.560057e+05")],
    )
    def test_synth_with_pedestals_reduces_rate(self, convention, lbskr, adjusted, capsys):
        # the 6 dB debit as the sweep-row reader printed it from a sweep of the same config
        code = main(
            ["sidechannel", "--synth", "--pedestals", "0.05,0,0,0.05", "--gain-convention", convention,
             "--config", str(ROOT / "configs" / "benchmark6db.cfg")]
        )
        assert code == 0
        out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert list(out)[4:] == ["attenuation_db", "lbskr_bps", "leakage_adjusted_bps"]
        assert out["attenuation_db"] == "6.0"
        assert (f"{float(out['lbskr_bps']):.6e}", f"{float(out['leakage_adjusted_bps']):.6e}") == (lbskr, adjusted)
        assert float(out["leakage_total_bits_per_pulse"]) > 1e-2

    @pytest.mark.parametrize("convention", decoy.GAIN_CONVENTIONS)
    def test_debit_is_the_config_link_report(self, bench_config_file, convention, tmp_path, capsys):
        out = tmp_path / "audit.txt"
        argv = ["sidechannel", "--synth", "--pedestals", "0.05,0,0,0.05", "--gain-convention", convention]
        assert main([*argv, "--config", str(bench_config_file), "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()  # the mapping printed is the one written
        written = dict(line.split(" = ") for line in out.read_text().splitlines())
        source, link, proto = load_config(bench_config_file)
        report = decoy.evaluate_link(source, link, proto, convention)
        leakage = (float(written[f"leakage_{k}_bits_per_pulse"]) for k in ("temporal", "spectral", "spatial"))
        budget = sidechannel.LeakageBudget(*leakage)
        assert written["attenuation_db"] == repr(link.attenuation_db)
        assert written["lbskr_bps"] == repr(report.secure_key_rate_bps)
        assert written["leakage_adjusted_bps"] == repr(sidechannel.leakage_adjusted_rate(report, budget))

    def test_profiles_with_config_debit_too(self, bench_config_file, tmp_path, capsys):
        path = tmp_path / "shifted.csv"
        rows = "".join(f"{i}e-12,{1 + (i == 3)},1,1,1\n" for i in range(8))  # stateH brighter in one bin
        path.write_text("axis,stateH,stateV,stateD,stateA\n" + rows)
        assert main(["sidechannel", "--profiles", str(path), "--config", str(bench_config_file)]) == 0
        out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        source, link, proto = load_config(bench_config_file)
        report = decoy.evaluate_link(source, link, proto, "full-budget")
        assert out["lbskr_bps"] == repr(report.secure_key_rate_bps)
        assert 0 < float(out["leakage_adjusted_bps"]) < float(out["lbskr_bps"])

    def test_synth_pulse_shape_from_config(self, tmp_path, capsys):
        config = tmp_path / "shape.cfg"
        config.write_text("pulse_fwhm_s = 200e-12\ntime_bandwidth_product = 0.9\n")
        assert main(["sidechannel", "--synth", "--config", str(config), "--shifts-ps", "0,30,-20,10"]) == 0
        out = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines())
        shifts = tuple(s * 1e-12 for s in (0.0, 30.0, -20.0, 10.0))
        temporal, spectral = sidechannel.synth_profiles(fwhm_s=200e-12, tbp=0.9, shifts_s=shifts)
        assert out["leakage_temporal_bits_per_pulse"] == repr(sidechannel.leakage(temporal))
        assert out["leakage_spectral_bits_per_pulse"] == repr(sidechannel.leakage(spectral))
        default_shape = sidechannel.synth_profiles(shifts_s=shifts)[0]
        assert out["leakage_temporal_bits_per_pulse"] != repr(sidechannel.leakage(default_shape))

    def test_ambiguous_inputs(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("axis,stateH,stateV,stateD,stateA\n0,1,1,1,1\n")
        code = main(["sidechannel", "--profiles", str(path), "--synth"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--profiles" in err and "--synth" in err, err

    def test_empty_profiles_path_is_a_profiles_input(self, capsys):
        # an empty path still selects --profiles: it fails to load, it does not fall back to --synth
        assert main(["sidechannel", "--profiles", ""]) == 2
        assert capsys.readouterr().err.startswith("error: malformed profiles: ")

    def test_malformed_profiles(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("axis,stateH\n0,1\n")
        assert main(["sidechannel", "--profiles", str(path)]) == 2

    def test_budget_written_to_out(self, tmp_path, capsys):
        out = tmp_path / "audit.txt"
        assert main(["sidechannel", "--synth", "--spatial-bits", "2e-5", "--out", str(out)]) == 0
        keys = [line.split(" = ")[0] for line in out.read_text().splitlines()]
        assert keys == [f"leakage_{key}_bits_per_pulse" for key in ("temporal", "spectral", "spatial", "total")]
        assert "leakage_spatial_bits_per_pulse = 2e-05\n" in out.read_text()
        assert capsys.readouterr().out == out.read_text()


class TestOptimize:
    def test_zero_rate_noted(self, bench_config_file, tmp_path, capsys):
        far = tmp_path / "far.cfg"
        far.write_text(bench_config_file.read_text().replace("attenuation_db = 6.0", "attenuation_db = 60"))
        assert main(["optimize", "--config", str(far)]) == 0
        assert capsys.readouterr().out == (
            "note: rate is zero on the whole grid; reported point is the first grid point\n"
            "mu_opt = 0.25\nnu1_opt = 0.05\nlbskr_bps = 0.0\n"
        )

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
        alice.write_text("code\n0\n5\n")  # signal Z 0, decoy-1 Z 1
        # 240 frames, every code, each detected on-phase in Alice's own state
        codes = np.tile(np.arange(12, dtype=np.uint8), 20)
        on_phase = (np.arange(len(codes)) * 128 + 37).astype(np.uint64)
        (tmp_path / "frames.ttag").write_bytes(timetag.encode(timetag.TimeTagStream(on_phase, codes & 3)))
        log = io.BytesIO()
        timetag.AliceLog(codes).to_csv(log)
        (tmp_path / "frames.alice.csv").write_bytes(log.getvalue())
        rate_11 = tmp_path / "rate_11.cfg"  # a 116.36-tick period
        rate_11.write_text(bench_config_file.read_text() + "pulse_rate_hz = 1.1e8\n")
        bad_code = tmp_path / "bad.alice.csv"
        bad_code.write_text("code\nc\n")  # 12 is no code
        old_log = tmp_path / "old.alice.csv"
        old_log.write_text("frame,bit,basis,class\n0,0,Z,signal\n1,1,Z,decoy1\n")
        logs = {
            "row_log": b"bit,basis,class\n0,Z,signal\n1,Z,decoy1\n",  # the 11-byte rows before the hex lines
            "crlf_log": b"code\r\n0\r\n5\r\n",
            "no_lf_log": b"code\n0\n5",
            "non_ascii_log": b"code\n\xe9\n5\n",
            "cut_log": log.getvalue()[: 5 + 100 * 2],  # the header and the first 100 of the 240 lines
        }
        for name, data in logs.items():
            (tmp_path / f"{name}.alice.csv").write_bytes(data)
        zero_bg = tmp_path / "zero_bg.cfg"
        zero_bg.write_text("background_yield = 0\n")
        (tmp_path / "zero_bg_far.cfg").write_text("background_yield = 0\nattenuation_db = 4000\n")
        tiny_nu1 = tmp_path / "tiny_nu1.cfg"
        text = bench_config_file.read_text()
        tiny_nu1.write_text(text.replace("nu1 = 0.066", "nu1 = 1e-320").replace("nu2 = 0.002", "nu2 = 0.0"))
        markers = timetag.TimeTagStream(np.array([37, 165], dtype=np.uint64), np.array([4, 15]))
        (tmp_path / "markers.ttag").write_bytes(timetag.encode(markers))
        for name, state_h in (("zero_profile", 0.0), ("huge_profile", 1e308), ("good_profile", 3.0)):
            rows = "".join(f"{i}e-12,{state_h!r},1.0,2.0,1.0\n" for i in range(8))
            (tmp_path / f"{name}.csv").write_text("axis,stateH,stateV,stateD,stateA\n" + rows)
        # a word in row 3's stateV cell; a nan axis in row 2, the first data row
        for name, bad in (("word_profile", "0,1,1,1,1\n1e-12,1,abc,1,1\n"), ("nan_axis_profile", "nan,1,1,1,1\n")):
            (tmp_path / f"{name}.csv").write_text("axis,stateH,stateV,stateD,stateA\n" + bad + "2e-12,1,1,1,1\n")
        # one config per bad gate width or pulse shape
        twins = {
            **{f"window_{v}": {"window_s": v} for v in ("nan", "inf", "1e308")},
            **{f"fwhm_{v}": {"pulse_fwhm_s": v} for v in ("nan", "inf", "1e300", "1e-300")},
            **{f"tbp_{v}": {"time_bandwidth_product": v} for v in ("inf", "1e300", "1e200")},
            "tbp_below_limit": {"time_bandwidth_product": 0.43},
            "jitter_inf": {"jitter_sigma_s": "inf"},
            "signal_pulses_inf": {"signal_pulses": "inf"},
        }
        (tmp_path / "er_below_0.cfg").write_text("extinction_ratio_db = -4000\n")  # nu2 derived from it
        (tmp_path / "cfg_dir.cfg").mkdir()
        (tmp_path / "latin1.cfg").write_bytes(b"mu = 0.5  # \xb5\n")  # not UTF-8
        return {
            **{name: str(with_keys(bench_config_file, f"{name}.cfg", **keys)) for name, keys in twins.items()},
            **{
                name: str(tmp_path / f"{name}.csv")
                for name in ("zero_profile", "huge_profile", "good_profile", "word_profile", "nan_axis_profile")
            },
            "cfg": str(bench_config_file),
            "tiny_nu1": str(tiny_nu1),
            "out": str(tmp_path / "out"),
            "ttag": str(ttag),
            "frames_ttag": str(tmp_path / "frames.ttag"),
            "frames_log": str(tmp_path / "frames.alice.csv"),
            "rate_11": str(rate_11),
            "alice": str(alice),
            "missing": str(tmp_path / "nope.csv"),
            "bad_code": str(bad_code),
            "old_log": str(old_log),
            **{name: str(tmp_path / f"{name}.alice.csv") for name in logs},
            "zero_bg": str(zero_bg),
            "zero_bg_far": str(tmp_path / "zero_bg_far.cfg"),
            "er_below_0": str(tmp_path / "er_below_0.cfg"),
            "cfg_dir": str(tmp_path / "cfg_dir.cfg"),
            "latin1_cfg": str(tmp_path / "latin1.cfg"),
            "markers_ttag": str(tmp_path / "markers.ttag"),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            "optimize --config {cfg} --mu-grid 0.5,abc",
            "optimize --config {cfg} --mu-grid 0.1 --nu1-grid 0.5",
            "sidechannel --synth --pedestals 0,abc,0,0",
            "sweep --config {cfg} --out {out} --atten-min nan",
            "sweep --config {cfg} --out {out} --atten-min -100 --atten-max 0",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {missing}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {bad_code}",
            "analyze-ttags --config {window_nan} --ttags {ttag} --alice-log {alice}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {alice}",
            "simulate --config {cfg} --frames 100 --seed 1 --out {out} --emit-ttags --phase-ticks -1",
            "simulate --config {cfg} --frames 100 --seed 1 --out {out} --emit-ttags --phase-ticks 128",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {old_log}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {row_log}",
            "sweep --config {cfg} --out {out} --atten-min abc",
            "simulate --config {cfg} --seed 1 --out {out}",
            "sidechannel --synth --spatial-bits -1",
            "sidechannel --synth --spatial-bits nan",
            "sidechannel --synth --config {fwhm_nan}",
            "sidechannel --synth --config {tbp_inf}",
            "analyze-ttags --config {window_inf} --ttags {ttag} --alice-log {alice}",
            "analyze-ttags --config {window_1e308} --ttags {ttag} --alice-log {alice}",
            "sweep --config {cfg} --out {out} --atten-max 1e308 --atten-step 1e-308",
            "simulate --config {cfg} --frames 100 --out {out} --emit-ttags --phase-ticks 200",
            "sidechannel --synth --config {fwhm_inf}",
            "sidechannel --synth --config {fwhm_1e300}",
            "sidechannel --synth --config {fwhm_1e-300}",
            "sidechannel --synth --config {tbp_1e300}",
            "sidechannel --synth --config {tbp_1e200}",
            "sidechannel --synth --config {missing}",
            "sidechannel --synth --shifts-ps 1e300,0,0,0",
            "sidechannel --synth --pedestals 1e308,0,0,0",
            "sidechannel --profiles {zero_profile}",
            "sidechannel --profiles {huge_profile}",
            "optimize --config {cfg} --mu-grid 0.5,0.6 --nu1-grid 1e-320,0.1",
            "sweep --config {tiny_nu1} --out {out}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {crlf_log}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {no_lf_log}",
            "analyze-ttags --config {cfg} --ttags {ttag} --alice-log {non_ascii_log}",
            "sweep --config {zero_bg} --out {out} --atten-min 3990 --atten-max 4000 --atten-step 10",
            "analyze-ttags --config {rate_11} --ttags {frames_ttag} --alice-log {frames_log}",
            "simulate --config {cfg} --frames 1000000000000 --seed 1 --out {out} --emit-ttags",  # a 931 GiB log
            "sidechannel --synth --config {zero_bg_far}",  # the model gain at 4000 dB is 0
            "sidechannel --synth --config {zero_bg_far} --gain-convention attenuation-only",
            "sidechannel --synth --config {cfg} --gain-convention paper",
            "analyze-ttags --config {cfg} --ttags {markers_ttag} --alice-log {alice}",
            "sidechannel --profiles {word_profile}",
            "sidechannel --profiles {nan_axis_profile}",
            "simulate --config {jitter_inf} --frames 100 --seed 1 --out {out} --emit-ttags",
            "analyze-ttags --config {signal_pulses_inf} --ttags {frames_ttag} --alice-log {frames_log} --seed 1",
            "optimize --config {er_below_0}",  # 10 ** 400 would overflow
            "optimize --config {cfg_dir}",
            "optimize --config {latin1_cfg}",
            "sidechannel --synth --pedestals 0,0,0",
            "sidechannel --synth --pedestals -0.1,0,0,0",
            "sweep --config {cfg} --out {out} --atten-min 5 --atten-max 1",
            "sweep --config {cfg} --out {out} --atten-step 0",
            "simulate --config {cfg} --frames 100 --seed 1 --out {out} --phase-ticks 500",  # no --emit-ttags
            "simulate --config {cfg} --frames 100 --seed 1 --out {out} --phase-ticks 0",
            "sidechannel --synth --domain spectral",
            "sidechannel --synth --domain temporal",
            "sidechannel --profiles {good_profile} --pedestals 0,0,0,0",
            "sidechannel --profiles {good_profile} --shifts-ps 5,0,0,0",
            "simulate --config {cfg} --frames 100 --seed -1 --out {out} --emit-ttags",
            "analyze-ttags --config {cfg} --ttags {missing} --alice-log {missing} --seed -3",
            "sidechannel --profiles {good_profile} --synth",
            "sidechannel",
        ],
    )
    def test_exits_2_with_one_line(self, inputs, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second line
            code = main(argv.format(**inputs).split())
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "unrecognized arguments" not in err  # a case must fail on its value, not on a flag that is gone
        assert out == ""  # rejected before anything is printed
        assert not list(Path(inputs["out"]).parent.glob("out*"))  # nor any output written

    @pytest.mark.parametrize("argv", ["sweep --config {cfg} --out {out} --seed 1", "optimize --config {cfg} --seed 1"])
    def test_seed_only_where_random_numbers_are_drawn(self, inputs, argv, capsys):
        # neither sweep nor optimize draws a random number, so neither takes --seed
        assert main(argv.format(**inputs).split()) == 2
        out, err = capsys.readouterr()
        assert err == "error: unrecognized arguments: --seed 1\n" and out == ""

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("pulse_fwhm_s", "sidechannel --synth --config {fwhm_nan}"),
            ("time_bandwidth_product", "sidechannel --synth --config {tbp_below_limit}"),
            ("pulse_fwhm_s", "simulate --config {fwhm_inf} --frames 100 --seed 1 --out {out}"),
            ("pulse_fwhm_s", "simulate --config {fwhm_1e300} --frames 100 --seed 1 --out {out}"),
            ("time_bandwidth_product", "simulate --config {tbp_inf} --frames 100 --seed 1 --out {out}"),
            ("--spatial-bits", "sidechannel --synth --spatial-bits nan"),
            ("--spatial-bits", "sidechannel --synth --spatial-bits -1"),
            ("window_s", "analyze-ttags --config {window_inf} --ttags {missing} --alice-log {missing}"),  # config first
            ("--atten-step", "sweep --config {cfg} --out {out} --atten-step -inf"),
            ("jitter_sigma_s", "simulate --config {jitter_inf} --frames 100 --seed 1 --out {out} --emit-ttags"),
            ("extinction_ratio_db", "optimize --config {er_below_0}"),
            ("cfg_dir.cfg", "optimize --config {cfg_dir}"),
            ("latin1.cfg", "optimize --config {latin1_cfg}"),
            ("--phase-ticks", "simulate --config {cfg} --frames 100 --seed 1 --out {out} --phase-ticks 500"),
            ("--phase-ticks", "simulate --config {cfg} --frames 100 --seed 1 --out {out} --emit-ttags --phase-ticks 500"),
            ("--domain", "sidechannel --synth --domain spectral"),
            ("--pedestals", "sidechannel --profiles {good_profile} --pedestals 0,0,0,0"),
            ("--shifts-ps", "sidechannel --profiles {good_profile} --shifts-ps 5,0,0,0"),
            ("--seed", "simulate --config {cfg} --frames 100 --seed -1 --out {out} --emit-ttags"),
            ("--seed", "analyze-ttags --config {cfg} --ttags {missing} --alice-log {missing} --seed -3"),  # inputs unread
        ],
    )
    def test_message_names_the_flag(self, inputs, flag, argv, capsys):
        assert main(argv.format(**inputs).split()) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile, message",
        [
            ("word_profile", "row 3: every cell must be a number"),
            ("nan_axis_profile", "row 2: axis value must be finite"),
        ],
    )
    def test_profiles_error_names_its_row(self, inputs, profile, message, capsys):
        assert main(["sidechannel", "--profiles", inputs[profile]]) == 2
        assert message in capsys.readouterr().err

    def test_fractional_period_rejected_not_rounded(self, inputs, capsys):
        # the same stream and log analyze at a 128-tick period; rounding
        # 116.36 ticks to 116 would misplace the frames and still exit 0
        argv = "analyze-ttags --config {cfg} --ttags {frames_ttag} --alice-log {frames_log} --seed 1"
        assert main(argv.format(**inputs).split()) == 0
        capsys.readouterr()
        assert main(argv.replace("{cfg}", "{rate_11}").format(**inputs).split()) == 2
        assert "is not an integer number of" in capsys.readouterr().err

    @pytest.mark.parametrize("log", ["old_log", "row_log"])
    def test_old_format_alice_log_names_header(self, inputs, log, capsys):
        # no older format is read: a frame-column log and an 11-byte-row log stop at their header
        argv = f"analyze-ttags --config {{cfg}} --ttags {{ttag}} --alice-log {{{log}}}".format(**inputs)
        assert main(argv.split()) == 2
        assert "bad alice log header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "log, message",
        [
            ("crlf_log", "bad alice log header: 'code\\r\\n'"),
            ("no_lf_log", "alice log line 3: malformed row"),
            ("non_ascii_log", "alice log line 2: malformed row"),
        ],
    )
    def test_alice_log_message_names_the_line(self, inputs, log, message, capsys):
        argv = f"analyze-ttags --config {{cfg}} --ttags {{ttag}} --alice-log {{{log}}}".format(**inputs)
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == f"error: cannot read alice log: {message}\n"

    def test_clamped_bound_warned_once(self, inputs, capsys):
        # every frame detected in Alice's own state: no decoy errors, so e1_upper is clamped up to 0
        argv = "analyze-ttags --config {cfg} --ttags {frames_ttag} --alice-log {frames_log} --seed 1 --out {out}"
        assert main(argv.format(**inputs).split()) == 0
        warning, mapping = capsys.readouterr().out.split("\n", 1)
        assert warning == "warning: a decoy bound (y1_lower or e1_upper) was clamped into its range; lbskr_bps is unreliable"
        assert mapping == Path(inputs["out"]).read_text()
        assert "\ne1_upper = 0.0\n" in mapping

    def test_alice_log_that_grows_while_read_rejected(self, inputs, monkeypatch, capsys):
        class Growing(io.BytesIO):  # a line arrives once the log is sized
            def seek(self, pos, whence=0):
                end = super().seek(pos, whence)
                if whence == io.SEEK_END:
                    self.write(b"0\n")
                return end

        monkeypatch.setattr(cli, "open", lambda path, mode: Growing(Path(path).read_bytes()), raising=False)
        argv = "analyze-ttags --config {cfg} --ttags {frames_ttag} --alice-log {frames_log} --seed 1"
        assert main(argv.format(**inputs).split()) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: cannot read alice log: alice log changed size while it was read\n")

    def test_alice_log_shorter_than_its_stream_rejected(self, inputs, capsys):
        # the detections of frames 100-239 have no line to be scored against
        argv = "analyze-ttags --config {cfg} --ttags {frames_ttag} --alice-log {cut_log} --seed 1"
        assert main(argv.format(**inputs).split()) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: alice log covers 100 frames; 140 detection records lie outside it\n")

    def test_zero_model_gain_names_the_attenuation(self, inputs, capsys):
        argv = "sweep --config {zero_bg} --out {out} --atten-min 3000 --atten-max 4000 --atten-step 10"
        assert main(argv.format(**inputs).split()) == 2
        assert capsys.readouterr().err == "error: model gain is 0 at attenuation 3230 dB, so its error rate is undefined\n"


class TestOneProcess:
    """``main`` called again in one process, as a script or the benchmark calls it, against fresh processes."""

    @staticmethod
    def fresh(args: list[str], cwd: Path) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of ``python *args`` in a fresh interpreter."""
        path = os.pathsep.join(p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_after_one_another_match_fresh_processes(self, bench_config_file, tmp_path, capsys, monkeypatch):
        # a usage error, then a run and its analysis: the shared parser keeps nothing from one call to the next
        commands = [
            f"simulate --config {bench_config_file} --frames ten --seed 7 --out run --emit-ttags",
            f"simulate --config {bench_config_file} --frames 200000 --seed 7 --out run --emit-ttags",
            f"analyze-ttags --config {bench_config_file} --ttags run.ttag --alice-log run.alice.csv --seed 7 "
            "--out analysis.txt",
        ]
        here, apart = tmp_path / "here", tmp_path / "apart"
        here.mkdir()
        apart.mkdir()
        monkeypatch.chdir(here)
        ran_here = []
        for command in commands:
            code = main(command.split())
            ran_here.append((code, *capsys.readouterr()))
        ran_apart = [self.fresh(["-m", "qkdbench.cli", *command.split()], apart) for command in commands]

        assert [r[0] for r in ran_here] == [2, 0, 0]
        assert ran_here[0][1:] == ("", "error: argument --frames: invalid int value: 'ten'\n")
        assert ran_here == ran_apart
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in apart.iterdir()) and len(names) == 5
        for name in names:
            assert (here / name).read_bytes() == (apart / name).read_bytes(), name

    def test_analysis_without_shared_frames_draws_nothing(self, bench_config_file, tmp_path):
        # with no frame holding two detections, sift draws no random number, so
        # analyze-ttags never imports numpy.random (the simulate run does, in its own process)
        simulate = f"simulate --config {bench_config_file} --frames 1000000 --seed 7 --out run --emit-ttags"
        assert self.fresh(["-m", "qkdbench.cli", *simulate.split()], tmp_path)[0] == 0
        code = (
            "import sys\n"
            "from qkdbench import cli\n"
            f"code = cli.main('analyze-ttags --config {bench_config_file} --ttags run.ttag --alice-log run.alice.csv "
            "--seed 7'.split())\n"
            "print('exit =', code, 'numpy.random' in sys.modules)\n"
        )
        returncode, out, err = self.fresh(["-c", code], tmp_path)
        assert returncode == 0, err
        assert "collisions = 0\n" in out
        assert out.endswith("exit = 0 False\n")
