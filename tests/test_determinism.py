"""Maintenance does not depend on the interpreter's string hashing.

View names are strings and the router hands each tree the *set* of views
it affects, so any walk over such a set that decided an order would make
the refresh stream depend on ``PYTHONHASHSEED``.  The replay below runs
the same seeded stream in two interpreters with different hash seeds and
compares every refresh event (payload included) and every read.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the duplicate-view leg's views, alternately deferred and threshold(3),
#: a payload listener on each, every view read every fifth step
REPLAY = """
import hashlib, random
from repro import StorageManager, ViewRegistry
from repro.multiview import DEFERRED, threshold
from repro.workloads import xmark
from tests.helpers import ALL_MUTATORS, SHARING_VIEWS, random_batch

storage = StorageManager()
xmark.register_site(storage, 20, seed=1)
registry = ViewRegistry(storage)
log = []
for index, query in enumerate(SHARING_VIEWS):
    name = f"view{index}"
    registry.register(name, query,
                      policy=DEFERRED if index % 2 else threshold(3))
    registry.add_refresh_listener(
        name, lambda event: log.append(
            (event.view, event.reason, event.trees, event.delta_tuples,
             event.sequence, event.mutations)),
        deliver_mutations=True)
rng = random.Random(3)
for step in range(30):
    registry.apply_updates(random_batch(rng, storage, step, ALL_MUTATORS))
    if step % 5 == 4:
        for name in registry.names():
            xml = registry.query(name)
            assert xml == registry.recompute_xml(name), (step, name)
            log.append((name, xml))
print(len(log), hashlib.sha256(repr(log).encode()).hexdigest())
"""


def replay(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", REPLAY], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_refresh_streams_agree_across_hash_seeds():
    first = replay("0")
    events = int(first.split()[0])
    assert events > 100
    assert replay("2") == first
