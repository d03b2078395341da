"""Cross-validate the analytic decoy model with the per-pulse simulator.

Ten million pulses through the full 6 dB link budget; the empirical
gains and error rates land within binomial noise of the closed-form
model.  The depolarization term is switched off here because the
analytic benchmark model carries the intrinsic detection error alone;
re-enable it (DOP < 1) to see the sifted QBER shift up by (1 - DOP)/2.
"""

import math

from qkdbench import LinkConfig, ProtocolConfig, SourceConfig, decoy, montecarlo

source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002, degree_of_polarization=1.0)
link = LinkConfig(background_suppression=1.0)
proto = ProtocolConfig(signal_pulses=1e8, duration_s=1.0)

result = montecarlo.run(source, link, proto, frames=10_000_000, seed=2024)
summary = result.summary
model = decoy.channel_observables(source, link, "full-budget")

print("empirical vs analytic, full 6 dB budget, 1e7 pulses")
print(f"{'':10} {'simulated':>12} {'model':>12} {'pull':>7}")
for i, (name, q_model) in enumerate(
    [("Q_signal", model.q_mu), ("Q_decoy1", model.q_nu1), ("Q_decoy2", model.q_nu2)]
):
    q = summary.gain_class(i)
    sigma = math.sqrt(q_model * (1 - q_model) / int(summary.sent[i]))
    print(f"{name:10} {q:12.5e} {q_model:12.5e} {(q - q_model) / sigma:+7.2f}")

e = summary.qber_class(0)
sigma = math.sqrt(model.e_mu * (1 - model.e_mu) / int(summary.sifted[0]))
print(f"{'E_signal':10} {e:12.5e} {model.e_mu:12.5e} {(e - model.e_mu) / sigma:+7.2f}")

_, report = decoy.rate_from_counts(
    summary.sent, summary.detected, summary.sifted, summary.errors, source, link, proto
)
print(f"\nkey rate from the simulated observables: {report.secure_key_rate_bps / 1e6:.3f} Mbps")
print(f"(analytic chain at the same budget gives "
      f"{decoy.evaluate_link(source, link, proto, 'full-budget').secure_key_rate_bps / 1e6:.3f} Mbps)")
