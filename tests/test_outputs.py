"""Golden outputs: `flmarket run` on `example.cfg`, on its Scaffold and
FedProx variants, and on its 8-client variants at k = 3 and 5 (FedAvg and
Scaffold), and on its 6-client, 40-round variants under both trust
policies, writes exactly the recorded CSVs, provenance line included. The
20-client rounds score by the additive game's closed form; the 8- and
6-client rounds enumerate every coalition with `banzhaf_exact`. In the
6-client cases the chained tamper cells' utilities differ between the two
policies, so each policy's reads of attacked records are pinned.

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
    "n8-fedavg": {
        "rounds": "87da9b85a643fccb66a29f1ee68d2d4f541f2a727434f98567d8820e5e5d7944",
        "summary": "b71b98b880fca87ed730501f0c3d2100e65eb8c694cf6a4d30c5513807e668b9",
        "reputation": "28ddd152785978d2e92e196f8ad80f080de167ac2610dcce946d553908b5ccf6",
        "robustness": "9b3967711bc12a4eb349527b55d4f41c80d691d117f34c8ff02e72727bcaf281",
    },
    "n8-scaffold": {
        "rounds": "f5178810acdea7df33c4ee1342be7359d296fb182ecd6aaa31adc1d0d2a454a0",
        "summary": "84c721e3d775e739d8b84e9d9ba0d16944ffb801d14de76a77073f3b339fcabd",
        "reputation": "9877f270c694bdf0e83ebb5f950880c5c1bfb5cb75997c5f91e4d079e6166913",
        "robustness": "dba0124371751053acdc271b2d272fb88f5de1a86e9dab16df369d46d89c638d",
    },
    "n6-last_valid": {
        "rounds": "940d930d46df0f48b62017ecea0a3b1b1cdfe282a35e78e116b205056d2b9bcd",
        "summary": "eefb439b4fdaf5f74b5f8556bce45854dd9ac97388777cc4cf6c2aa7f8028e12",
        "reputation": "c4ef8b21c92ead306092ffb3cbdccce06d484ad8aba79f35cb5de0471d000bd2",
        "robustness": "7e246727194b045585dc7cf320beddd1037963c8a822b81bb1fb181a3de7a129",
    },
    "n6-zero": {
        "rounds": "28410b6cde37b9f7d6331c0d173e2e7edfe9c1d427a1f1c56fb504e79845d6d4",
        "summary": "73d7ac7674dc7ba89a1ad4f34ab90046f8738a2d85d4f7043c876cd785006043",
        "reputation": "a9357acce435b55aecb06cf0c4c07400216110f0d05d6ef97b34528b9567f683",
        "robustness": "4563ba24a0e804b5ca50aca4401379ae810895199e14f587e9b9db8f53afde2d",
    },
}

# The keys of `example.cfg` each case replaces, besides `output_dir`.
VARIANTS = {
    "fedavg": {"aggregation": "fedavg"},
    "scaffold": {"aggregation": "scaffold"},
    "fedprox": {"aggregation": "fedprox"},
    "n8-fedavg": {"aggregation": "fedavg", "n_clients": "8", "k_select": "3, 5"},
    "n8-scaffold": {"aggregation": "scaffold", "n_clients": "8", "k_select": "3, 5"},
    "n6-last_valid": {"n_clients": "6", "k_select": "5", "rounds": "40"},
    "n6-zero": {"n_clients": "6", "k_select": "5", "rounds": "40", "trust_policy": "zero"},
}


def _variant(case: str, output_dir: Path) -> str:
    """`example.cfg` with the case's keys and `output_dir` replaced."""
    text = EXAMPLE.read_text()
    for key, value in {**VARIANTS[case], "output_dir": output_dir}.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return text


@pytest.mark.parametrize("case", list(DIGESTS))
def test_example_outputs_are_the_recorded_bytes(tmp_path, case):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(_variant(case, out))
    assert main(["run", str(path)]) == 0
    written = {
        p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }
    assert written == DIGESTS[case]
