"""Run the whole detection-side pipeline on a simulated timetag stream.

The simulator emits raw 78.125 ps timetag records (background spread
over the full 10 ns frame); the analysis side then recovers the clock
phase from the residue histogram, applies the 1 ns software gate,
sifts against the emission log into one per-class count table and
rebuilds the decoy key-rate chain from that table alone.
"""

from dataclasses import replace

from qkdbench import LinkConfig, ProtocolConfig, SourceConfig, decoy, montecarlo, timetag

source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002, degree_of_polarization=1.0)
link = LinkConfig(background_suppression=1.0)  # raw stream: gate happens below
proto = ProtocolConfig(signal_pulses=1e8, duration_s=1.0)

PERIOD = timetag.period_ticks(source.pulse_rate_hz)  # 128 ticks per 10 ns frame
result = montecarlo.run(
    source, link, proto, frames=2_000_000, seed=7, emit_ttags=True, phase_ticks=37
)
stream = result.stream
simulated_s = len(result.alice_log) / source.pulse_rate_hz
print(f"emitted {len(stream)} records over {simulated_s * 1e3:.0f} ms "
      f"({len(stream) / simulated_s / 1e6:.2f} Mcps, "
      f"{result.dropped_records} dropped at the 10 Mcps cap)")

phase = timetag.recover_phase(stream, PERIOD)
print(f"recovered phase: {phase.phase_ticks} ticks "
      f"(histogram contrast {phase.contrast:.1f}, true value 37)")

window = timetag.window_ticks_from_seconds(1e-9)
gated = timetag.gate(stream, PERIOD, phase.phase_ticks, window)
print(f"1 ns gate = {window} ticks: kept {len(gated.accepted)}, rejected {gated.rejected}")

# the key's count table: rows sent, detected, sifted and errored per class
key = timetag.sift(result.alice_log, gated, PERIOD, seed=8)
print(f"sifted {key.sifted.sum()} bits, {key.collisions} frame collisions")
for i, label in enumerate(timetag.CLASS_LABELS):
    print(f"  qber_{label:7} = {key.qber_class(i):.4f}")

# decoy chain from the measured stream
y0, report = decoy.rate_from_counts(key.counts, source, link, proto)
print(f"\nY0 estimate from the decoy-2 gain: {y0:.3e}")
print(f"secure rate from the stream: {report.secure_key_rate_bps / 1e6:.3f} Mbps")

gated_model = decoy.channel_observables(
    source, replace(link, background_suppression=window / PERIOD), "full-budget"
)
print(f"analytic QBER with the gated background: {gated_model.e_mu:.4f} "
      f"(stream gave {key.qber_class(0):.4f})")
