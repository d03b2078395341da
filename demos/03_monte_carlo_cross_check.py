"""Cross-check the per-pulse simulator against its exact expectation.

Ten million pulses through the full 6 dB link budget.  Each class's
gain and the signal QBER are compared with the simulator's exact mean,
``montecarlo.expected_tally``, as a pull in binomial standard
deviations, so the check does not turn into a bias as the pulse count
grows.  The closed-form model of the paper is printed next to them, as
``qkdbench simulate`` prints it; it is not the simulator's mean, since
its gain Y0 + 1 - e^(-eta mu) counts a frame with both a signal and a
background click twice.
"""

import math

from qkdbench import LinkConfig, ProtocolConfig, SourceConfig, decoy, montecarlo

source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002, degree_of_polarization=1.0)
link = LinkConfig(background_suppression=1.0)
proto = ProtocolConfig(signal_pulses=1e8, duration_s=1.0)

result = montecarlo.run(source, link, proto, frames=10_000_000, seed=2024)
summary = result.summary
sent, detected, sifted, errors = montecarlo.expected_tally(source, link)
model = decoy.channel_observables(source, link, "full-budget")

print("simulated vs exact mean, full 6 dB budget, 1e7 pulses")
print(f"{'':10} {'simulated':>12} {'exact':>12} {'pull':>7} {'paper':>12}")
rows = [(f"Q_{label}", summary.gain_class(i), detected[i] / sent[i], summary.sent[i], paper)
        for i, (label, paper) in enumerate(zip(("signal", "decoy1", "decoy2"), (model.q_mu, model.q_nu1, model.q_nu2)))]
rows.append(("E_signal", summary.qber_class(0), errors[0] / sifted[0], summary.sifted[0], model.e_mu))
for name, mc, exact, n, paper in rows:
    sigma = math.sqrt(exact * (1 - exact) / int(n))
    print(f"{name:10} {mc:12.5e} {exact:12.5e} {(mc - exact) / sigma:+7.2f} {paper:12.5e}")

_, report = decoy.rate_from_counts(
    summary.sent, summary.detected, summary.sifted, summary.errors, source, link, proto
)
print(f"\nkey rate from the simulated observables: {report.secure_key_rate_bps / 1e6:.3f} Mbps")
print(f"(analytic chain at the same budget gives "
      f"{decoy.evaluate_link(source, link, proto, 'full-budget').secure_key_rate_bps / 1e6:.3f} Mbps)")
