"""One timed `flmarket run` in a fresh process.

Usage: python3 benchmarks/worker.py CONFIG [--trace | --setup-only]

Imports flmarket and parses CONFIG (the set-up), then runs
`flmarket.cli.main(["run", CONFIG])` and prints one JSON line: the
monotonic time at which set-up ended, the run's wall and CPU seconds, its
exit code, the peak resident set, and with --trace the per-layer metrics.

It also times fixed interpreter work right before and right after the run
(`gauge_s`, their mean). On a shared machine the speed one process gets
drifts by tens of percent over tens of seconds, and the gauge, run in the
same process, follows that drift; bench.py scales times by it.
"""

import hashlib
import json
import resource
import struct
import sys
import time

import numpy

from flmarket import cli
from flmarket.config import parse_config
from tracer import Tracer

GAUGE_LOOPS = 500_000
GAUGE_BYTES = 4 << 20
GAUGE_WALK = 300_000
GAUGE_STRIDE = 7_919  # odd, so the walk covers the block, a page apart
GAUGE_HASHES = 60_000


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    usage = (resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(usage) / 1024.0


def gauge() -> float:
    """Seconds this process takes for fixed interpreter work: arithmetic, a
    walk that jumps a page at a time through a 4 MB block, and SHA-256 of
    small records. The block is one allocation, returned to the system on
    free, so it leaves the run's peak resident set alone."""
    block = bytes(range(256)) * (GAUGE_BYTES // 256)
    record = struct.Struct("<qqdd")
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOPS):
        total += i * i
    j = 0
    for _ in range(GAUGE_WALK):
        j = (j + GAUGE_STRIDE) % GAUGE_BYTES
        total += block[j]
    for i in range(GAUGE_HASHES):
        hashlib.sha256(record.pack(i, i, 0.5, 0.25) + bytes(32)).digest()
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    config_path, mode = argv[0], argv[1] if len(argv) > 1 else ""
    parse_config(config_path)
    ready = time.monotonic()
    result = {"ready": ready, "numpy": numpy.__version__}
    gauges = [gauge()]
    if mode != "--setup-only":
        tracer = Tracer().install() if mode == "--trace" else None
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        result["rc"] = cli.main(["run", config_path])
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = _cpu_s() - cpu0
        if tracer is not None:
            result["layers"] = tracer.metrics()
    result["peak_rss_mb"] = _peak_rss_mb()  # before the second gauge allocates
    if mode != "--setup-only":
        gauges.append(gauge())
    result["gauge_s"] = sum(gauges) / len(gauges)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
