"""Golden guard: every CSV writer's output bytes stay as recorded.

``tests/data/csv_golden.json`` holds the sha256 of each file below. Regenerate
it (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_csv_golden.py > tests/data/csv_golden.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from faultwave import dwt_decompose, select_channel
from faultwave.cli import main
from faultwave.io import (
    write_record_csv,
    write_series_csv,
    write_spectrogram_csv,
    write_spectrum_csv,
    write_tree_csv,
)
from conftest import make_record

GOLDEN = Path(__file__).parent / "data" / "csv_golden.json"

# Values at the edges of %.12g: non-finite, signed zero, the smallest subnormal.
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 1 / 3])

ENERGY_SUITE = {
    "base": {},
    "scenarios": [
        {"name": "AG", "fault": {"fault_type": "AG", "onset_s": 0.065}},
        {"name": "noisy", "fault": {"fault_type": "AB", "onset_s": 0.065},
         "noise": {"snr_db": 20.0, "seed": 4}},
        {"name": "broken", "fault": {"fault_type": "AG", "onset_s": 0.9}},
    ],
}


def write_all(out: Path) -> None:
    """Write one file per writer and case into ``out``."""
    faulty = make_record("AG", snr_db=20.0, seed=7)
    write_record_csv(out / "record_ag.csv", faulty)
    write_record_csv(out / "record_none.csv", make_record("NONE"))

    trace = select_channel(faulty, "a")
    write_series_csv(out / "series.csv", faulty.time_axis(), trace.samples, "va")
    write_series_csv(out / "series_special.csv", np.arange(SPECIAL.shape[0]) / 7.0, SPECIAL,
                     "special")
    write_tree_csv(out / "tree.csv", dwt_decompose(trace, 3))
    write_spectrum_csv(out / "spectrum.csv", trace)
    write_spectrogram_csv(out / "spectrogram.csv", trace)

    suite = out / "suite.json"
    suite.write_text(json.dumps(ENERGY_SUITE))
    result = CliRunner().invoke(
        main, ["energy-table", "--config", str(suite), "--out", str(out / "energy_table.csv")]
    )
    assert result.exit_code == 0, result.output
    suite.unlink()


def digests() -> dict[str, str]:
    """``{file name: sha256}`` of every file :func:`write_all` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_all(out)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())}


def test_writers_match_golden():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=2)
    print()
