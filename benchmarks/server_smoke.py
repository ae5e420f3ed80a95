"""Server smoke: boot ``python -m repro.server`` as a real subprocess,
drive a scripted workload over the wire, and assert the serving-layer
contract end to end:

* the push subscription delivers one delta frame per update batch with
  a **contiguous** sequence (gap-free, starting right after the
  subscribe baseline);
* reads are consistent with what the pushes announced;
* the HTTP sidecar serves ``/metrics`` with the ``repro_server_*``
  families and ``/healthz``;
* SIGTERM shuts the server down gracefully (exit code 0).

Run:  PYTHONPATH=src python benchmarks/server_smoke.py

Exits non-zero (assertion) on any violation; CI runs this as the
``server-smoke`` job.
"""

import os
import re
import signal
import subprocess
import sys
import urllib.request

sys.path.insert(0, "src")

from repro.server import ReproClient   # noqa: E402

DOC = "<data><row><name>seed</name><v>0</v></row></data>"
VIEW_QUERY = '<r>{for $x in doc("data.xml")/data/row return $x}</r>'
UPDATES = 8

BANNER = re.compile(r"repro view server on ([\d.]+):(\d+) \(http (\d+)\)")


def insert_row(i: int) -> str:
    return ('for $d in document("data.xml")/data update $d '
            f'insert <row><name>r{i}</name><v>{i}</v></row> into $d')


def main() -> int:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server",
         "--port", "0", "--http-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": "src"})
    try:
        banner = process.stdout.readline()
        match = BANNER.search(banner)
        assert match, f"no server banner, got: {banner!r}"
        host, port, http_port = \
            match.group(1), int(match.group(2)), int(match.group(3))
        print(f"server up on {host}:{port} (http {http_port})")

        with ReproClient(host, port) as client:
            client.load("data.xml", DOC)
            client.create_view("rows", VIEW_QUERY)
            subscription = client.subscribe("rows")
            assert subscription.last_sequence == 0, \
                subscription.last_sequence

            applied = [client.update([insert_row(i)])["applied_index"]
                       for i in range(UPDATES)]
            assert applied == sorted(applied), applied

            sequences = []
            while len(sequences) < UPDATES:
                frame = subscription.get(timeout=30)
                assert frame["view"] == "rows", frame
                sequences.append(frame["sequence"])
            assert sequences == list(range(1, UPDATES + 1)), \
                f"push sequence not contiguous: {sequences}"
            print(f"push deltas gap-free: sequences {sequences[0]}.."
                  f"{sequences[-1]}")

            read = client.read("rows")
            assert read["sequence"] == UPDATES, read["sequence"]
            for i in range(UPDATES):
                assert f"<name>r{i}</name>" in read["xml"], i
            subscription.cancel()

        scrape = urllib.request.urlopen(
            f"http://{host}:{http_port}/metrics", timeout=10
        ).read().decode()
        for family in ("repro_server_sessions", "repro_server_frames_out",
                       "repro_server_push_lag_seconds",
                       "repro_view_flushes", "repro_plan_compile_seconds",
                       "repro_plan_cache_hits",
                       "repro_vm_instructions_executed"):
            assert family in scrape, f"{family} missing from /metrics"
        health = urllib.request.urlopen(
            f"http://{host}:{http_port}/healthz", timeout=10
        ).read().decode()
        assert health == "ok\n", health
        print(f"/metrics ok ({len(scrape.splitlines())} lines), "
              f"/healthz ok")

        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=30)
        assert code == 0, f"server exited {code} on SIGTERM"
        print("graceful shutdown ok (exit 0)")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
