"""High-band energy indices across FT, STFT, and wavelet detail bands.

Runs the six standard fault types through all three energy detectors and
prints the per-scenario indices with detection flags, plus a severity sweep
showing the index growing monotonically as the retained voltage drops.
"""

from faultwave import (
    DetectorConfig,
    FaultSpec,
    FaultType,
    WaveformConfig,
    generate_baseline,
    inject_fault,
    run,
)
from faultwave.detect import ENERGY_LABELS, energy_row

scenarios = [
    FaultSpec(fault_type=FaultType(name), onset_s=0.065)
    for name in ("AG", "BG", "CG", "AB", "BC", "ABC")
]
table = [energy_row(fault.fault_type.value,
                    inject_fault(generate_baseline(WaveformConfig(duration_s=0.2)), fault))
         for fault in scenarios]

energy_columns = " ".join(f"{'e_' + label:>12s}" for label in ENERGY_LABELS)
print(f"{'scenario':10s} {energy_columns}   detected({'/'.join(ENERGY_LABELS)})")
for row in table:
    energies = " ".join(f"{e:>12.4e}" for e in row.energies)
    print(f"{row.scenario_name:10s} {energies}   {'/'.join(map(str, row.detected))}")

print("\nseverity sweep (AG fault, energy_wt analysis_index of phase a):")
print(f"{'retained voltage':>18s} {'index':>12s} {'detected':>9s}")
for retained in (0.9, 0.7, 0.5, 0.3, 0.1):
    record = inject_fault(
        generate_baseline(WaveformConfig(duration_s=0.2)),
        FaultSpec(fault_type=FaultType.AG, onset_s=0.065, retained_voltage_pu=retained),
    )
    report = run(record, DetectorConfig(method="energy_wt"))
    print(f"{retained:>18.1f} {report.metadata['analysis_index']:>12.4e} {str(report.detected):>9s}")
