"""Performance-index detection under three operating conditions.

For a phase-to-ground and a phase-to-phase fault, computes the ICA
performance index on the clean record, with 20 dB noise, and with the
fundamental shifted by +1%. The index stays near zero before the fault and
jumps at onset in every condition; the printed table shows the contrast.
"""

from pathlib import Path

from faultwave import (
    DetectorConfig,
    FaultSpec,
    FaultType,
    NoiseSpec,
    Spans,
    WaveformConfig,
    add_noise,
    generate_baseline,
    inject_fault,
    run,
)
from faultwave.io import write_series_csv

out_dir = Path(__file__).parent / "out"
spans = Spans(calibration=(0, 120), analysis=(0, 400))

conditions = [
    ("clean", None, 50.0),
    ("20 dB noise", 20.0, 50.0),
    ("50.5 Hz fundamental", None, 50.5),
]

print(f"{'fault':6s} {'condition':22s} {'pre-fault mean':>14s} {'peak':>10s} "
      f"{'onset [s]':>10s}")
for fault_name in ("AG", "AB"):
    for label, snr, f0 in conditions:
        record = generate_baseline(WaveformConfig(duration_s=0.2, fundamental_hz=f0))
        record = inject_fault(record, FaultSpec(fault_type=FaultType(fault_name), onset_s=0.065))
        if snr is not None:
            record = add_noise(record, NoiseSpec(snr_db=snr, seed=2))
        report = run(record, DetectorConfig(method="ica"), spans, fundamental_hz=f0)
        pi = report.index_series
        onset = f"{report.onset_time_s:.4f}" if report.detected else "none"
        print(f"{fault_name:6s} {label:22s} {pi[:130].mean():>14.3e} {pi.max():>10.3f} {onset:>10s}")
        if fault_name == "AG" and label == "20 dB noise":
            write_series_csv(out_dir / "pi_ag_20db.csv", report.index_times_s, pi, "pi")

print(f"\nwrote {out_dir}/pi_ag_20db.csv (index vs. time for the noisy AG case)")
