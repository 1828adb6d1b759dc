"""Workloads of the cohodist benchmark: seeded inputs and the query lists.

Every workload is a list of queries, each with the verdict it must give.
Inputs are written before the program starts, with the package's own
``fileio`` writers: complex files carry an ``order:`` header holding a
vertex order drawn from the seed, and cover files are written against the
reordered complex.  A vertex order changes sign patterns, pivot order and
the order in which greedy search visits faces, but no verdict: groups,
cup-lengths, certificate verdicts and exact values are invariants.

A query is a dict:

* ``name``: unique within the workload, used to report failures;
* ``kind``: ``"cli"`` (run as ``cohodist.cli.main(["--json", *argv])``) or
  ``"api"`` (a public Python call the CLI has no command for);
* ``argv`` (cli) or ``op`` plus ``args`` (api), with file paths filled in;
* ``expect``: the verdict, compared with :func:`verdict` of the outcome.
"""

import os
import random

# every bundled fixture complex, smallest first
FIXTURES = ("point", "edge", "c3", "s2", "k5", "rp2", "torus", "figure1",
            "rp3", "c3xs2", "cp2", "s2xs2")

# fixture cover -> complex it lives on
COVERS = {"table1": "cp2", "table2": "rp3", "table3": "c3xs2"}

# groups of every fixture over Z_2 and Z_3 (cohomology and homology agree)
GROUPS = {
    "z2": {
        "point": ["Z_2"], "edge": ["Z_2", "0"], "c3": ["Z_2", "Z_2"],
        "s2": ["Z_2", "0", "Z_2"], "k5": ["Z_2", "Z_2^6"],
        "rp2": ["Z_2", "Z_2", "Z_2"], "torus": ["Z_2", "Z_2^2", "Z_2"],
        "figure1": ["Z_2", "0", "0"], "rp3": ["Z_2", "Z_2", "Z_2", "Z_2"],
        "c3xs2": ["Z_2", "Z_2", "Z_2", "Z_2"],
        "cp2": ["Z_2", "0", "Z_2", "0", "Z_2"],
        "s2xs2": ["Z_2", "0", "Z_2^2", "0", "Z_2"],
    },
    "zp:3": {
        "point": ["Z_3"], "edge": ["Z_3", "0"], "c3": ["Z_3", "Z_3"],
        "s2": ["Z_3", "0", "Z_3"], "k5": ["Z_3", "Z_3^6"],
        "rp2": ["Z_3", "0", "0"], "torus": ["Z_3", "Z_3^2", "Z_3"],
        "figure1": ["Z_3", "0", "0"], "rp3": ["Z_3", "0", "0", "Z_3"],
        "c3xs2": ["Z_3", "Z_3", "Z_3", "Z_3"],
        "cp2": ["Z_3", "0", "Z_3", "0", "Z_3"],
        "s2xs2": ["Z_3", "0", "Z_3^2", "0", "Z_3"],
    },
}

CUP_LENGTHS = {
    "z2": {"point": 0, "edge": 0, "c3": 1, "s2": 1, "k5": 1, "rp2": 2,
           "torus": 2, "figure1": 0, "rp3": 3, "c3xs2": 2, "cp2": 2,
           "s2xs2": 2},
    "zp:3": {"point": 0, "edge": 0, "c3": 1, "s2": 1, "k5": 1, "rp2": 0,
             "torus": 2, "figure1": 0, "rp3": 1, "c3xs2": 2, "cp2": 2,
             "s2xs2": 2},
}


def _exact(n):
    return {"status": "exact", "lower": n, "upper": n, "exact": n}


# ---------------------------------------------------------------------------
# input generation


class InputWriter:
    """Writes one set of input files for one (seed, variant) into a directory.

    Each complex gets its own random stream, keyed by seed, variant and
    name, so adding a query never changes the order drawn for another.
    ``fixture_order=True`` keeps every fixture's own vertex order.
    """

    def __init__(self, outdir, seed, variant=0, fixture_order=False):
        self.outdir = outdir
        self.seed = seed
        self.variant = variant
        self.fixture_order = fixture_order
        self._complexes = {}
        os.makedirs(outdir, exist_ok=True)

    def _reorder(self, name, K):
        from cohodist import from_maximal_faces
        order = list(K.vertices)
        if not self.fixture_order:
            random.Random(f"{self.seed}:{self.variant}:{name}").shuffle(order)
        return from_maximal_faces(K.maximal_faces, order=order)

    def _path(self, filename):
        return os.path.join(self.outdir, filename)

    def complex(self, name):
        """Path of the fixture complex ``name`` in a seeded vertex order."""
        if name not in self._complexes:
            from cohodist import fileio
            from cohodist.fixtures import fixture_complex
            K = self._reorder(name, fixture_complex(name))
            path = self._path(f"{name}.cx")
            fileio.write_complex(K, path, comment=name)
            self._complexes[name] = (K, path)
        return self._complexes[name][1]

    def cover(self, name):
        """Path of the fixture cover ``name`` on its reordered complex."""
        from cohodist import Cover, fileio
        from cohodist.fixtures import fixture_cover
        parent_name = COVERS[name]
        self.complex(parent_name)
        K = self._complexes[parent_name][0]
        faces = [p.complex.maximal_faces for p in fixture_cover(name).pieces]
        path = self._path(f"{name}.cov")
        fileio.write_cover(Cover.from_face_lists(K, faces), path)
        return path

    def subdivision(self, name):
        """(path of sd(name), path of its carrier map sd(name) -> name)."""
        from cohodist import SimplicialMap, barycentric_subdivision, fileio
        self.complex(name)
        K = self._complexes[name][0]
        sd, carrier = barycentric_subdivision(K)
        sd = self._reorder(f"sd {name}", sd)
        sd_path = self._path(f"sd_{name}.cx")
        map_path = self._path(f"sd_{name}.map")
        fileio.write_complex(sd, sd_path, comment=f"sd({name})")
        fileio.write_map(SimplicialMap(sd, K, carrier.assignment), map_path)
        return sd_path, map_path


# ---------------------------------------------------------------------------
# query lists


def _cli(name, argv, expect):
    return {"name": name, "kind": "cli", "argv": list(argv), "expect": expect}


def _api(name, op, args, expect):
    return {"name": name, "kind": "api", "op": op, "args": dict(args),
            "expect": expect}


def search_queries(w: InputWriter):
    """Cover search and piece evaluation over finite fields.

    All three searches make the same piece evaluations in every vertex
    order: every permutation of s2's vertices is a symmetry of s2 (and so
    of s2 x s2), every permutation of k5's is one of k5, and the
    exhaustive proofs evaluate every face set.  See :func:`greedy_order_queries` for the
    searches whose work does depend on the order.
    """
    return [
        _cli("bounds tc s2 zp:3",
             ["bounds", "--tc", w.complex("s2"), "--ring", "zp:3"], _exact(2)),
        _cli("bounds scat k5 z2 exhaustive 2",
             ["bounds", "--scat", w.complex("k5"), "--ring", "z2",
              "--exhaustive", "2"], _exact(2)),
        _api("search exhaustive rp2 z2 2", "search",
             {"complex": w.complex("rp2"), "ring": "z2", "size": 2,
              "strategy": "exhaustive"}, {"found": False}),
    ]


def greedy_order_queries(w: InputWriter):
    """Greedy searches whose work depends on the vertex order.

    On cp2 the greedy search takes from 86 to 368 piece evaluations (0.36 to
    1.75 s), on c3xs2 from 0.14 to 2.66 s, depending on the order.  Timed
    in ``search`` they made the latency median of a run swing with the
    orders drawn (a spread of 0.26 over ten seeds), so they are not timed;
    the self-test checks their verdicts in drawn orders instead, since a
    verdict that changed with the order would be a bug.
    """
    return [
        _cli("bounds scat c3xs2 z2",
             ["bounds", "--scat", w.complex("c3xs2"), "--ring", "z2"], _exact(2)),
        _cli("bounds scat cp2 zp:3",
             ["bounds", "--scat", w.complex("cp2"), "--ring", "zp:3"], _exact(2)),
    ]


def integer_queries(w: InputWriter):
    """The exact Z/Q path on subdivided and larger fixtures."""
    sd_path, map_path = w.subdivision("figure1")
    queries = [
        _cli("cohomology sd(figure1) z", ["cohomology", sd_path, "--ring", "z"],
             {"groups": ["Z", "0", "0"]}),
        _cli("homology sd(figure1) z", ["homology", sd_path, "--ring", "z"],
             {"groups": ["Z", "0", "0"]}),
    ]
    for variance in ("cohomology", "homology"):
        queries.append(_api(f"induced_map sd(figure1)->figure1 z {variance}",
                            "induced_iso",
                            {"source": sd_path, "target": w.complex("figure1"),
                             "map": map_path, "ring": "z", "variance": variance},
                            {"iso": True}))
    queries += [
        _cli("cohomology s2xs2 q", ["cohomology", w.complex("s2xs2"), "--ring", "q"],
             {"groups": ["Q", "0", "Q^2", "0", "Q"]}),
        _cli("cohomology cp2 q", ["cohomology", w.complex("cp2"), "--ring", "q"],
             {"groups": ["Q", "0", "Q", "0", "Q"]}),
        _cli("cohomology rp3 z", ["cohomology", w.complex("rp3"), "--ring", "z"],
             {"groups": ["Z", "0", "Z_2", "Z"]}),
    ]
    for cover, cx in COVERS.items():
        queries.append(_cli(f"verify {cover} z",
                            ["verify", "--scat", w.complex(cx), "--cover",
                             w.cover(cover), "--ring", "z"],
                            {"status": "verified"}))
    return queries


def sweep_queries(w: InputWriter):
    """Many short queries, each complex seen by few of them."""
    queries = []
    for name in FIXTURES:
        path = w.complex(name)
        for ring in ("z2", "zp:3"):
            groups = GROUPS[ring][name]
            queries.append(_cli(f"cohomology {name} {ring}",
                                ["cohomology", path, "--ring", ring],
                                {"groups": groups}))
            queries.append(_cli(f"homology {name} {ring}",
                                ["homology", path, "--ring", ring],
                                {"groups": groups}))
            queries.append(_cli(f"cuplength {name} {ring}",
                                ["cuplength", path, "--ring", ring],
                                {"cup_length": CUP_LENGTHS[ring][name]}))
    for cover, cx in COVERS.items():
        for ring in ("z2", "zp:3"):
            queries.append(_cli(f"verify {cover} {ring}",
                                ["verify", "--scat", w.complex(cx), "--cover",
                                 w.cover(cover), "--ring", ring],
                                {"status": "verified"}))
    queries.append(_cli("zdcl s2 zp:3", ["zdcl", w.complex("s2"), "--ring", "zp:3"],
                        {"zdcl": 2}))
    queries.append(_cli("zdcl rp2 z2", ["zdcl", w.complex("rp2"), "--ring", "z2"],
                        {"zdcl": 3}))
    for name in FIXTURES:
        for variance in ("cohomology", "homology"):
            queries.append(_api(f"sd iso {name} z2 {variance}", "sd_iso",
                                {"complex": w.complex(name), "ring": "z2",
                                 "variance": variance},
                                {"iso": True}))
    return queries


QUERY_BUILDERS = {
    "search": search_queries,
    "integer": integer_queries,
    "sweep": sweep_queries,
}
WORKLOADS = tuple(QUERY_BUILDERS)


def build_queries(workload, outdir, seed, variant=0, fixture_order=False):
    """Write the inputs of one workload pass and return its query list."""
    writer = InputWriter(outdir, seed, variant, fixture_order)
    return QUERY_BUILDERS[workload](writer)


# ---------------------------------------------------------------------------
# verdicts


def verdict(outcome):
    """The part of a query's outcome that its expectation is compared with.

    ``outcome`` is what the child process returned: for a CLI query the
    exit code and JSON report, for an API query the result fields.
    """
    if "report" not in outcome:
        return dict(outcome["result"])
    report = outcome["report"]
    data = report["data"]
    command = report["command"]
    if command in ("cohomology", "homology"):
        return {"groups": data["groups"]}
    if command == "cuplength":
        return {"cup_length": data["cup_length"]}
    if command == "zdcl":
        return {"zdcl": data["zero_divisor_cup_length"]}
    if command == "verify":
        return {"status": report["status"]}
    if command == "bounds":
        return {"status": report["status"], "lower": data["lower"],
                "upper": data["upper"], "exact": data["exact"]}
    raise ValueError(f"no verdict rule for command {command!r}")


def check(query, outcome):
    """None when the outcome matches the expected verdict, else a reason."""
    if "error" in outcome:
        return f"raised {outcome['error']}"
    if outcome.get("exit_code", 0) not in (0, 1):
        return f"exit code {outcome['exit_code']}"
    got = verdict(outcome)
    if got != query["expect"]:
        return f"verdict {got} != expected {query['expect']}"
    return None
