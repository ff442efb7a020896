"""Whole-run training check: every `tests/test_outputs.py` case trains the
recorded models.

The CSV goldens cannot see a training change below about 1e-5 relative: the
tables hold accuracies (hits out of 2000) and contract arithmetic, and a
tiny weight change rarely flips a test prediction. So for each golden case
`training.npz` holds, per distinct seed, the global weights of every grid
trajectory at every round, and the Banzhaf indices (`zetas`) of every node
the run trained, grid and tamper cells alike. They are compared at
`ATOL = 1e-12`: far above the gap between OpenBLAS kernels (about 1.7e-16
on these weights), far below what the CSVs see. On the numpy, OpenBLAS and
kernel the fixture was recorded on (its `kernel` entry) they are compared
bit for bit, since there a reordered sum, which moves a weight by an ulp,
is the only way to differ.

A weights digest would not serve: training bits differ between BLAS
kernels while the goldens do not. `test_goldens_hold_under_another_blas_kernel`
pins that portability instead, by rerunning one golden case on OpenBLAS's
SSE-only kernel.

A change meant to move training (a new coalition game, say) records the
fixture again with `PYTHONPATH=src python tests/test_training.py` and says
so.
"""

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from test_outputs import DIGESTS, VARIANTS, _variant

from flmarket import auction
from flmarket.config import parse_config

FIXTURE = Path(__file__).with_name("training.npz")
ATOL = 1e-12


def _nodes(node, path=()):
    """Every node under `node`, with its path: the ordered selections of the
    rounds that reach it from the root."""
    yield path, node
    for selected, child in node.children.items():
        yield from _nodes(child, (*path, selected))


def _trajectory(tree, reports):
    """The nodes a cell's reports walk from the root, the root included."""
    node, nodes = tree.root, [tree.root]
    for report in reports:
        node = node.children[tuple(report.selected)]
        nodes.append(node)
    return nodes


def trained(case, tmp_path, monkeypatch):
    """The case's training, keyed `<seed>/k<k>/weights` (the grid cell's
    global weights, one row per round, the start model first) and
    `<seed>/zetas` (one row per node the run trained, ordered by path)."""
    config_path = tmp_path / f"{case}.cfg"
    config_path.write_text(_variant(case, tmp_path / "out"))
    config = parse_config(config_path)
    trees, make_tree = [], auction._model_tree

    def kept(*args):
        trees.append(tree := make_tree(*args))
        return tree

    monkeypatch.setattr(auction, "_model_tree", kept)
    auction.run_tables(config)
    monkeypatch.undo()
    out = {}
    for seed, tree in zip(dict.fromkeys(config.seeds), trees, strict=True):
        nodes = sorted(_nodes(tree.root), key=lambda item: item[0])
        for k in config.k_values:
            # Replaying the grid cell reaches only nodes the run made.
            walked = _trajectory(tree, auction._play(config, tree, k))
            out[f"{seed}/k{k}/weights"] = np.array([node.weights for node in walked])
        assert len(list(_nodes(tree.root))) == len(nodes)
        out[f"{seed}/zetas"] = np.array([node.zetas for _, node in nodes if node.zetas is not None])
    return out


def _blas():
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]


def _openblas_on_x86_64():
    return "openblas" in _blas().get("name", "") and platform.machine() in ("x86_64", "AMD64")


def core_name():
    """The kernel numpy's bundled OpenBLAS runs on, or "" if it cannot be
    asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            get = getattr(ctypes.CDLL(lib), name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return ""


def kernel():
    """numpy, its OpenBLAS build and the kernel it runs on, or "" if any
    of them is unknown."""
    build, core = _blas().get("openblas configuration", ""), core_name()
    return f"numpy {np.__version__}; {build}; {core}" if build and core else ""


@pytest.mark.parametrize("case", list(VARIANTS))
def test_every_case_trains_the_recorded_models(tmp_path, monkeypatch, case):
    recorded = np.load(FIXTURE)
    expected = {key.split("/", 1)[1]: recorded[key] for key in recorded if key.startswith(f"{case}/")}
    got = trained(case, tmp_path, monkeypatch)
    here = kernel()
    atol = 0.0 if here and here == str(recorded["kernel"]) else ATOL
    assert sorted(got) == sorted(expected)
    for key, values in expected.items():
        assert got[key].shape == values.shape, key
        np.testing.assert_allclose(got[key], values, rtol=0, atol=atol, err_msg=key)


# Runs one golden case in a fresh interpreter and prints the OpenBLAS kernel
# it ran on.
_CHILD = """
import sys
from flmarket.cli import main
from test_training import core_name
status = main(["run", sys.argv[1]])
print("kernel:", core_name())
sys.exit(status)
"""


@pytest.mark.skipif(
    not _openblas_on_x86_64(), reason="OPENBLAS_CORETYPE picks a kernel only in OpenBLAS on x86-64"
)
def test_goldens_hold_under_another_blas_kernel(tmp_path):
    # Prescott is SSE-only, so it runs on any x86-64; its products differ
    # from the wider kernels' in the last bits, and no CSV may see that.
    case = "fedavg"
    out = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(_variant(case, out))
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(config_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    (core,) = [line[len("kernel:"):].strip() for line in child.stdout.splitlines()
               if line.startswith("kernel:")]
    assert core in ("", "Prescott", "Katmai"), f"ran on the {core} kernel"
    written = {
        p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }
    assert written == DIGESTS[case]


def record():
    """Write `training.npz` from the current code, every case."""
    arrays = {}
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as tmp:
        for case in VARIANTS:
            arrays.update(
                (f"{case}/{key}", values)
                for key, values in trained(case, Path(tmp), monkeypatch).items()
            )
    np.savez_compressed(FIXTURE, kernel=np.array(kernel()), **arrays)
    print(f"{FIXTURE}: {sum(a.size for a in arrays.values())} doubles in {len(arrays)} arrays")


if __name__ == "__main__":
    record()
