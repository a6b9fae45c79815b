"""Regenerate the reference feature table that the model-ref workload reads.

Run from the repository root (takes about two minutes on two cores):

    python3 perfbench/make_reference_table.py

It renders the acceptance image set (600 images at 128x64, 400/150/50,
noise 0.02, seed 7), writes it as PGM files, loads them back (so the
16-bit quantization matches the acceptance run), and writes
perfbench/data/reference_features.csv.  It then runs the acceptance
1x6 GF+EGF cross-validation and final training once and records the
digests of the table, report and model in perfbench/data/reference.json;
the benchmark's set-up checks the table digest, and the default model-ref
seed checks the other two.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
TABLE = DATA / "reference_features.csv"
COMMAND = "python3 perfbench/make_reference_table.py"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from gaborboost import dataio, ebm, features, harness, synthgen

    work = HERE / ".work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    spec = synthgen.SynthSpec(width=128, height=64, n_longitudinal=400, n_partial=150,
                              n_vortex=50, noise_sigma=0.02, seed=7)
    dataset, truths = synthgen.generate(spec)
    synthgen.write_dataset(dataset, truths, work / "images")
    rows = features.tabularize(dataio.load_dataset(work / "images"))
    DATA.mkdir(parents=True, exist_ok=True)
    dataio.write_feature_table(rows, TABLE)

    rows = dataio.read_feature_table(TABLE)
    report = harness.run_cv(rows, "GF+EGF", repeats=1, k=6, seed=0)
    ensemble, _ = harness.train_final(rows, "GF+EGF")
    ebm.save_model(ensemble, work / "model.json")

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    record = {
        "table": str(TABLE.relative_to(HERE)),
        "table_sha256": digest(TABLE.read_bytes()),
        "report_sha256": digest(report.to_json().encode()),
        "model_sha256": digest((work / "model.json").read_bytes()),
        "command": COMMAND,
    }
    (DATA / "reference.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work)
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
