import hashlib
import random
import time

import pytest

from zonoehrhart.matroid import VectorConfiguration
from zonoehrhart.oracle import hstar_via_oracle
from zonoehrhart.polycore import hstar_from_ehrhart
from zonoehrhart.zonotope import ZonotopeSpec, ehrhart_zonotope, hstar_zonotope

CORPUS_SEED = 20260809
CORPUS_PLAN = ((1, 40), (2, 110), (3, 60))  # (dimension, how many)
ENTRY_RANGE = (-3, 3)
MAX_GENERATORS = 5


def random_full_rank_config(rng, d, max_generators=MAX_GENERATORS,
                            entry_range=ENTRY_RANGE):
    lo, hi = entry_range
    while True:
        n = rng.randint(d, max_generators)
        config = VectorConfiguration(
            [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(n)], d)
        if config.full_rank == d:
            return config


@pytest.fixture(scope="session")
def corpus():
    """Random full-rank configurations with all three h* computations.

    Shared by the acceptance criteria so the oracle pass runs once.
    """
    rng = random.Random(CORPUS_SEED)
    configs = []
    for d, count in CORPUS_PLAN:
        for _ in range(count):
            configs.append(random_full_rank_config(rng, d))
    start = time.monotonic()
    records = []
    for config in configs:
        z = ZonotopeSpec(config)
        records.append({
            "config": config,
            "z": z,
            "formula": hstar_zonotope(z),
            "binomial": hstar_from_ehrhart(ehrhart_zonotope(z), config.dim),
            "oracle": hstar_via_oracle(z),
        })
    elapsed = time.monotonic() - start
    return {"records": records, "elapsed": elapsed}


@pytest.fixture
def match_digest():
    """A check that fails, naming the first record that moved, unless the
    records hash to the digest.  `record_digests` holds the first four hex
    digits of each record's own sha256, which locate that record."""
    def match(records, digest, record_digests):
        if hashlib.sha256("\n".join(records).encode()).hexdigest() != digest:
            short = [hashlib.sha256(r.encode()).hexdigest()[:4] for r in records]
            pinned = record_digests.split()
            first = next((i for i, (a, b) in enumerate(zip(short, pinned)) if a != b),
                         min(len(short), len(pinned)))
            shown = records[first][:600] if first < len(records) else "(no record)"
            pytest.fail(f"{len(records)} records (pinned {len(pinned)}); the first that "
                        f"differs is record {first}: {shown}")
    return match
