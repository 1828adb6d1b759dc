"""One benchmark client process: import cohodist, then answer queries.

The driver starts this script with ``src`` on ``PYTHONPATH`` and talks to
it over JSON lines.  The child prints ``{"ready": ...}`` once the package
is imported, then reads one request per line and answers each before it
reads the next (a closed loop with one client):

* ``{"query": {...}}`` runs one query and answers ``{"outcome": {...}}``
  with the query's time in the child, ``took_s``;
* ``{"quit": true}`` answers with the peak resident memory and the
  child's sampled speed (see ``reference.py``) and, when tracing, writes
  the recorded spans to the path given on the command line.

With ``--trace PATH`` every public function of the package is wrapped
before the first query (see ``tracer.py``).

From its start the child samples its own speed (see ``reference.py``).
``ready`` and every answer to a query carry ``sampled_s``, the time the
samples have taken so far, and ``speed_sum`` and ``speed_n``, the sum and
count of the speeds sampled during set-up or during the query.  ``took_s``
leaves out the samples that fell in the query.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time

from reference import Sampler


def _run_cli(query):
    from cohodist import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(["--json", *query["argv"]])
        except SystemExit as e:  # argparse rejects bad arguments this way
            code = e.code
    outcome = {"exit_code": code}
    if code in (0, 1):
        outcome["report"] = json.loads(buf.getvalue())
    return outcome


def _run_api(query):
    from cohodist import (fileio, induced_map, barycentric_subdivision,
                          ring_from_code, scat_query, search)
    args = query["args"]
    op = query["op"]
    ring = ring_from_code(args["ring"])
    if op == "search":
        K = fileio.read_complex(args["complex"])
        cover = search(scat_query(K, ring), args["size"], strategy=args["strategy"])
        return {"result": {"found": cover is not None}}
    if op == "sd_iso":
        K = fileio.read_complex(args["complex"])
        _, carrier = barycentric_subdivision(K)
        return {"result": {"iso": induced_map(carrier, ring, args["variance"]).is_iso()}}
    if op == "induced_iso":
        source = fileio.read_complex(args["source"])
        target = fileio.read_complex(args["target"])
        carrier = fileio.read_map(args["map"], source, target)
        return {"result": {"iso": induced_map(carrier, ring, args["variance"]).is_iso()}}
    raise ValueError(f"unknown api op {op!r}")


def run_query(query):
    """Outcome of one query; an exception is an outcome, not a crash."""
    try:
        if query["kind"] == "cli":
            return _run_cli(query)
        return _run_api(query)
    except Exception as e:  # reported to the driver as a failed query
        return {"error": f"{type(e).__name__}: {e}"}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record spans and write them to PATH on quit")
    args = parser.parse_args()
    out = sys.stdout
    sampler = Sampler()
    sampler.start()

    import cohodist
    import cohodist.cli  # noqa: F401  (part of what a CLI user imports)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def send(obj):
        out.write(json.dumps(obj) + "\n")
        out.flush()

    speed_sum, speed_n = sampler.since(0)
    send({"ready": True, "package": cohodist.__file__,
          "sampled_s": sampler.spent_s,
          "speed_sum": speed_sum, "speed_n": speed_n})
    for line in sys.stdin:
        request = json.loads(line)
        if "query" in request:
            query = request["query"]
            if tracer is not None:
                tracer.begin_query(query["name"])
            sampled, samples = sampler.spent_s, len(sampler.speeds)
            start = time.perf_counter()
            outcome = run_query(query)
            took = time.perf_counter() - start - (sampler.spent_s - sampled)
            if tracer is not None:
                tracer.end_query()
            speed_sum, speed_n = sampler.since(samples)
            send({"outcome": outcome, "took_s": took,
                  "sampled_s": sampler.spent_s,
                  "speed_sum": speed_sum, "speed_n": speed_n})
        elif request.get("quit"):
            if tracer is not None:
                tracer.finish()
                tracer.dump(args.trace)
            speed = sampler.speed()
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send({"peak_rss_mb": peak_kb / 1024.0, "speed": speed})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
