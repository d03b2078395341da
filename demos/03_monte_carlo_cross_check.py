"""Cross-check the per-pulse simulator against its exact expectation.

Ten million pulses through the full 6 dB link budget.  The run's count
table and its exact mean per frame, ``montecarlo.expected_tally``, share
one layout, so each class's gain and the signal QBER come from both
through ``timetag.ratios`` and are compared as a pull in binomial standard
deviations, so the check does not turn into a bias as the pulse count
grows.  The closed-form model of the paper is printed next to them; it
is not the simulator's mean, since its gain Y0 + 1 - e^(-eta mu) counts
a frame with both a signal and a background click twice.
"""

import math

from qkdbench import LinkConfig, ProtocolConfig, SourceConfig, decoy, montecarlo, timetag

source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002, degree_of_polarization=1.0)
link = LinkConfig(background_suppression=1.0)
proto = ProtocolConfig(signal_pulses=1e8, duration_s=1.0)

# both tables: rows sent, detected, sifted, errored; columns signal, decoy 1, decoy 2
counts = montecarlo.run(source, link, proto, frames=10_000_000, seed=2024).summary.counts
simulated, exact = timetag.ratios(counts), timetag.ratios(montecarlo.expected_tally(source, link))
model = decoy.channel_observables(source, link, "full-budget")

print("simulated vs exact mean, full 6 dB budget, 1e7 pulses")
print(f"{'':10} {'simulated':>12} {'exact':>12} {'pull':>7} {'paper':>12}")
names = [f"Q_{label}" for label in timetag.CLASS_LABELS] + ["E_signal"]
cells = [(0, 0), (0, 1), (0, 2), (1, 0)]  # (ratio row, class): gains over sent, the QBER over sifted
for name, (row, i), paper in zip(names, cells, (model.q_mu, model.q_nu1, model.q_nu2, model.e_mu)):
    mc, x = simulated[row, i], exact[row, i]
    sigma = math.sqrt(x * (1 - x) / int(counts[2 * row, i]))
    print(f"{name:10} {mc:12.5e} {x:12.5e} {(mc - x) / sigma:+7.2f} {paper:12.5e}")

_, report = decoy.rate_from_counts(counts, source, link, proto)
print(f"\nkey rate from the simulated observables: {report.secure_key_rate_bps / 1e6:.3f} Mbps")
print(f"(analytic chain at the same budget gives "
      f"{decoy.evaluate_link(source, link, proto, 'full-budget').secure_key_rate_bps / 1e6:.3f} Mbps)")
