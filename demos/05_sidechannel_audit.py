"""Quantify how distinguishable the four polarization outputs are.

Four semiconductor amplifiers never match perfectly: broadband noise
floors (ASE) and small timing offsets make the temporal and spectral
envelopes state-dependent, and every bit of mutual information between
those observables and the sent state must be handed to privacy
amplification.  This demo scores synthetic profiles with and without
noise floors, shows the effect of pedestal filtering, and debits the
resulting budget from the 6 dB secure rate.

Each profile set is one (4, 256) array, a row per sent state.  The
synthetic spectral axis spans +-3 FWHM of the pulse bandwidth, so the
time-bandwidth product changes no spectral number here: spectral
leakage comes from the pedestals alone.
"""

from qkdbench import LinkConfig, ProtocolConfig, SourceConfig, decoy, sidechannel

# two of the four amplifier channels with a visible 5% noise floor
temporal, spectral = sidechannel.synth_profiles(
    fwhm_s=400e-12, tbp=0.56, ase_pedestal=(0.05, 0.0, 0.0, 0.05)
)
i_t_raw = sidechannel.leakage(temporal)
i_f_raw = sidechannel.leakage(spectral)
print("unfiltered profiles (5% ASE floors on two channels)")
print(f"  temporal leakage = {i_t_raw:.3e} bits/pulse")
print(f"  spectral leakage = {i_f_raw:.3e} bits/pulse")

i_t = sidechannel.leakage(sidechannel.remove_pedestal(temporal))
i_f = sidechannel.leakage(sidechannel.remove_pedestal(spectral))
print("after pedestal filtering")
print(f"  temporal leakage = {i_t:.3e} bits/pulse")
print(f"  spectral leakage = {i_f:.3e} bits/pulse")

# small residual timing misalignment survives filtering
shifted, _ = sidechannel.synth_profiles(shifts_s=(0.0, 2e-12, -2e-12, 3e-12))
print(f"\n2-3 ps timing offsets alone leak {sidechannel.leakage(shifted):.3e} bits/pulse")

budget = sidechannel.LeakageBudget(temporal=max(i_t, 1.92e-3), spectral=max(i_f, 1.75e-3))
print("\nworking budget (filtered floors, external spatial constant)")
for name in ("temporal", "spectral", "spatial", "total"):
    print(f"  {name} = {getattr(budget, name):.3e} bits/pulse")

source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002)
link = LinkConfig(background_suppression=1.0)
proto = ProtocolConfig(signal_pulses=1e8, duration_s=1.0)
report = decoy.evaluate_link(source, link, proto, "attenuation-only")
adjusted = sidechannel.leakage_adjusted_rate(report, budget)
print(f"\nsecure rate {report.secure_key_rate_bps / 1e6:.3f} Mbps "
      f"-> {adjusted / 1e6:.3f} Mbps after the leakage debit")
