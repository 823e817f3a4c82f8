"""Seeded scenario-document generators for the page-cache workloads.

Each generator takes the workload seed and returns a list of
``(case_name, scenario_doc)`` pairs.  The documents are plain scenario JSON
(see ``src/scenario/scenario.hpp``); the simulator receives nothing else.
Platform references are relative to the repository root, which the runner
passes as the documents' base directory.

Shapes are drawn by stratified sampling: every seed covers the same grid of
(concurrency, chunk-size) cells and jitters the values inside each cell.  The
cells span the whole range (1 .. host cores concurrent tasks; 1 .. 32 MB
chunks on cache_reread), so the shapes on which the page-cache model is
slow or never finishes appear on every seed in about the same number.  That
keeps figures comparable across seeds without sizing any shape away.
"""

import math
import random

PLATFORM_FILE = "scenarios/platforms/paper_cluster.json"
HOST_CORES = 32  # compute0 in paper_cluster.json
GB = 1e9
MB = 1e6


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _dealt(rng, bins, levels):
    """Chunk sizes (bytes) for `levels` rows x len(bins) columns.

    Each bin is split into `levels` log-spaced sub-bins and a fixed Latin
    square gives every row one sub-bin per bin, so each row sees small and
    large chunks alike and every seed covers every bin evenly.  The seed
    draws the position inside each sub-bin.  Pairing shapes by a fixed rule
    keeps the set of slow shapes, and with it the work that completes, the
    same from seed to seed.
    """
    assert math.gcd(5, levels) == 1
    rows = [[] for _ in range(levels)]
    for b, (lo, hi) in enumerate(bins):
        step = (hi / lo) ** (1.0 / levels)
        for row in range(levels):
            sub_lo = lo * step ** ((5 * row + 3 * b) % levels)
            rows[row].append(_log_uniform(rng, sub_lo, sub_lo * step) * MB)
    return rows


def _doc(name, chunk_bytes, tasks, platform=None):
    doc = {
        "name": name,
        "simulator": "wrench_cache",
        "compute_host": "compute0",
        "chunk_size": round(chunk_bytes),
        # One sample per 10^6 simulated seconds: the closing sample at the
        # makespan carries the cumulative page-cache gauges.
        "metrics": {"interval": 1e6},
        "workload": {"type": "dag", "workflow": {"tasks": tasks}},
    }
    if platform is None:
        doc["platform_file"] = PLATFORM_FILE
    else:
        doc["platform"] = platform
    return doc


# Concurrency levels: 12 evenly spaced up to the host's 32 cores; chunk
# strata: 4 log-spaced bins over 1..32 MB, dealt out per level (see _dealt).
REREAD_CONCURRENCY = [round(HOST_CORES * (k + 1) / 12) for k in range(12)]
REREAD_CHUNK_BINS = [(32.0 ** (k / 4), 32.0 ** ((k + 1) / 4)) for k in range(4)]
REREAD_INPUTS = 8
REREAD_INPUT_SIZE = round(4 * GB)


def cache_reread(seed):
    """Concurrent DAG tasks re-reading a shared input set.

    One DAG per case: ``c`` independent tasks, each reading 2 of the 8
    shared 4 GB inputs (the fixed input size) and writing a small output of
    seeded size.
    After the first touch every read is a page-cache hit, so the read-hit
    path does most of the work.
    """
    rng = random.Random(f"cache_reread:{seed}")
    chunks = _dealt(rng, REREAD_CHUNK_BINS, len(REREAD_CONCURRENCY))
    cases = []
    for i, c in enumerate(REREAD_CONCURRENCY):
        for chunk in chunks[i]:
            tasks = []
            for i in range(c):
                # A fixed rotation: sharing grows with c, and the working set
                # of a shape (hence its LRU slab size) does not vary by seed.
                a = i % REREAD_INPUTS
                b = (i + 1 + i // REREAD_INPUTS) % REREAD_INPUTS
                tasks.append({
                    "name": f"t{i}",
                    "cpu_seconds": 1,
                    "inputs": [{"name": f"in{a}", "size": REREAD_INPUT_SIZE},
                               {"name": f"in{b}", "size": REREAD_INPUT_SIZE}],
                    "outputs": [{"name": f"out{i}", "size": round(rng.uniform(10, 100) * MB)}],
                })
            name = f"c{c}_ch{chunk / MB:.2f}MB"
            cases.append((name, _doc(name, chunk, tasks)))
    return cases


# Writer counts: one to five waves on 32 cores; chunk strata: 6
# log-spaced bins over 2.5..20 MB, dealt out per writer count (see _dealt).
# Every case writes the same total, the fixed input size.
WRITEBACK_WRITERS = [40, 80, 120, 160]
WRITEBACK_CHUNK_BINS = [(2.5 * 8.0 ** (k / 6), 2.5 * 8.0 ** ((k + 1) / 6)) for k in range(6)]
WRITEBACK_TOTAL = 96 * GB
# The paper cluster's compute node with its RAM cut from 250 GB to 32 GB:
# the same dirty-ratio and eviction behaviour at an eighth of the bytes, so
# a case takes tens of milliseconds and a run repeats every case many times.
WRITEBACK_PLATFORM = {
    "hosts": [{"name": "compute0", "speed_gflops": 1, "cores": HOST_CORES, "ram": "32 GB",
               "memory": {"read_bw_MBps": 4812, "write_bw_MBps": 4812},
               "disks": [{"name": "ssd0", "read_bw_MBps": 465, "write_bw_MBps": 465,
                          "capacity": "450 GiB"}]}],
}


def cache_writeback(seed):
    """Concurrent writers far beyond the dirty budget.

    Input-less tasks each write one large output.  The 96 GB written per
    case is fifteen times the dirty limit (20% of 32 GB) and three times
    the host's memory, so demand flushing and eviction run throughout and
    nothing is ever read back.
    """
    rng = random.Random(f"cache_writeback:{seed}")
    chunks = _dealt(rng, WRITEBACK_CHUNK_BINS, len(WRITEBACK_WRITERS))
    cases = []
    for i, n in enumerate(WRITEBACK_WRITERS):
        for chunk in chunks[i]:
            # Uneven writers: sizes jitter +-20% around the even split and
            # are rescaled so the case total stays exact.
            weights = [rng.uniform(0.8, 1.2) for _ in range(n)]
            sizes = [round(WRITEBACK_TOTAL * w / sum(weights)) for w in weights]
            sizes[-1] += round(WRITEBACK_TOTAL) - sum(sizes)
            tasks = [{"name": f"w{i}", "cpu_seconds": 1, "inputs": [],
                      "outputs": [{"name": f"o{i}", "size": size}]}
                     for i, size in enumerate(sizes)]
            name = f"n{n}_ch{chunk / MB:.2f}MB"
            cases.append((name, _doc(name, chunk, tasks, WRITEBACK_PLATFORM)))
    return cases


GENERATORS = {"cache_reread": cache_reread, "cache_writeback": cache_writeback}

