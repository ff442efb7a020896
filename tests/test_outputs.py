"""Golden outputs: `flmarket run` on `example.cfg` and on its Scaffold and
FedProx variants writes exactly the recorded CSVs, provenance line included.

A change meant to move an output updates its digest here and says so in
CHANGES.md; any other change must leave every byte as it is.
"""

import hashlib
import re
from pathlib import Path

import pytest

from flmarket.cli import main

EXAMPLE = Path(__file__).resolve().parents[1] / "example.cfg"

DIGESTS = {
    "fedavg": {
        "rounds": "dec88ea6350cb3234a16fc1683e2aab6ee7c76a65ff817adf75a51ebe6a6e3d7",
        "summary": "203adb8e670bfbcb8b793a877540dac8d35e777a239f1f95ed968e47ea5c5576",
        "reputation": "4ca472bd1b2cb9d30e12482746d5d50dbba452012ce2a4d2628b2f06367e5647",
        "robustness": "2fd71396797e3c730888ce9c555e191fa870904758061879fd503ab2f6152a1e",
    },
    "scaffold": {
        "rounds": "f6bf5e4780812ce72d944a989572f8c407c6023b2fc0cdbd545a7ff503463a7a",
        "summary": "5141812632baa9f7e05d77a2caef09d2e0cd836c77ec366bdd9f2026cd610167",
        "reputation": "dd95376038d6066fd4cd444e0e20608df053c226e1e64c745f6373937e4661ba",
        "robustness": "0a2bb1e90bff2ba08126d0bdf0a89de2701c1fad583e973c69461382acc2be8b",
    },
    "fedprox": {
        "rounds": "a1644ce1436a97ddb989242e9264144e3a624b606c0b4d209a157e14f9b60a02",
        "summary": "be37ad3a7ed5f11dfcb9f956f0dce1902d925a08fde60d71902de5fd02552334",
        "reputation": "2ff517c35426f9699122e4103e520f9279ce940f78045320d1b1a0f2b39dd7dc",
        "robustness": "2da16349bc11ef2352ece878b56b99481a0d8808cd11c2b92747fd0e8851763c",
    },
}


def _variant(aggregation: str, output_dir: Path) -> str:
    """`example.cfg` with its `aggregation` and `output_dir` replaced."""
    text = EXAMPLE.read_text()
    for key, value in (("aggregation", aggregation), ("output_dir", output_dir)):
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return text


@pytest.mark.parametrize("aggregation", list(DIGESTS))
def test_example_outputs_are_the_recorded_bytes(tmp_path, aggregation):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(_variant(aggregation, out))
    assert main(["run", str(path)]) == 0
    written = {
        p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }
    assert written == DIGESTS[aggregation]
