"""Walk through wavelet-based onset detection on a single-phase-to-ground fault.

Builds a 0.2 s three-phase record sampled at 2 kHz, drops phase a to 30%
retained voltage at t = 0.065 s with a decaying burst, and locates the onset
from level-1 detail magnitudes. The decomposition is plain coefficient
arrays; the detail series is one value per sample, on the trace's time
axis. Plot-ready CSVs land in demos/out/.
"""

from pathlib import Path

import numpy as np

from faultwave import (
    FaultSpec,
    FaultType,
    NoiseSpec,
    WaveformConfig,
    add_noise,
    detail_series,
    dwt_decompose,
    generate_baseline,
    inject_fault,
    run,
    select_channel,
)
from faultwave.io import write_record_csv, write_series_csv

out_dir = Path(__file__).parent / "out"

config = WaveformConfig(duration_s=0.2)
fault = FaultSpec(fault_type=FaultType.AG, onset_s=0.065, retained_voltage_pu=0.3)
record = add_noise(inject_fault(generate_baseline(config), fault), NoiseSpec(snr_db=20.0, seed=1))
print(f"record: {record.n_samples} samples at {record.sample_rate_hz:.0f} Hz, "
      f"{fault.fault_type.value} fault at {fault.onset_s} s, 20 dB noise")

trace = select_channel(record, "a")
tree = dwt_decompose(trace, levels=3)
for j, detail in enumerate(tree.details, start=1):
    band = record.sample_rate_hz / 2 ** (j + 1), record.sample_rate_hz / 2**j
    print(f"  level {j}: {detail.shape[0]} coefficients, band {band[0]:.0f}-{band[1]:.0f} Hz, "
          f"peak |d{j}| = {np.abs(detail).max():.3f}")

report = run(record)
truth = fault.onset_s
print(f"detected: {report.detected}, onset {report.onset_time_s:.4f} s "
      f"(truth {truth} s, error {1000 * (report.onset_time_s - truth):+.1f} ms), "
      f"threshold {report.threshold_used:.4f}")

write_record_csv(out_dir / "wavelet_voltage.csv", record)
series = detail_series(tree, 1)
write_series_csv(out_dir / "wavelet_detail.csv", record.time_axis(), series, "detail_abs")
print(f"wrote {out_dir}/wavelet_voltage.csv and wavelet_detail.csv")
