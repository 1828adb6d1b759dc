"""Command-line interface.

Commands: info, homology, cohomology, cuplength, zdcl, verify, bounds,
subdivide, product.  Complexes and covers are given as file paths or
fixture names.  Exit codes: 0 verified/exact/ok, 1 not-verified or an
open gap, 2 input error.
"""

import argparse
import json
import os
import sys
import time

from . import fileio, fixtures
from .complexes import barycentric_subdivision, product
from .cupring import cup_length, zero_divisor_cup_length
from .distance import (
    DistanceQuery,
    bounds_for,
    scat_query,
    stc_query,
    verify,
)
from .errors import CohodistError
from .exactalg import ring_from_code
from .homology import COHOMOLOGY, HOMOLOGY, cohomology, homology

SCHEMA_NAME = "cohodist-report/1"


class Report:
    """One command's outcome, rendered identically as text and JSON."""

    def __init__(self, command, status, data, ring=None, variance=None, lines=None):
        self.command = command
        self.status = status
        self.data = data
        self.ring = ring
        self.variance = variance
        self.lines = lines or []
        self.elapsed = 0.0

    def to_json(self):
        return {
            "schema": SCHEMA_NAME,
            "command": self.command,
            "status": self.status,
            "ring": str(self.ring) if self.ring is not None else None,
            "variance": self.variance,
            "elapsed_seconds": self.elapsed,
            "data": self.data,
        }

    def render_text(self):
        out = list(self.lines)
        out.append(f"status: {self.status}   ({self.elapsed:.3f}s)")
        return "\n".join(out)

    @property
    def exit_code(self):
        return 0 if self.status in ("ok", "verified", "exact") else 1


def _resolve_complex(arg, require_connected=True):
    if os.path.exists(arg):
        return fileio.read_complex(arg, require_connected=require_connected)
    try:
        return fixtures.fixture_complex(arg)
    except KeyError:
        raise CohodistError(
            f"{arg!r} is neither a file nor one of the fixtures "
            f"{', '.join(fixtures.fixture_names())}")


def _resolve_cover(arg, parent):
    if os.path.exists(arg):
        return fileio.read_cover(arg, parent)
    try:
        return fixtures.fixture_cover(arg)
    except KeyError:
        raise CohodistError(
            f"{arg!r} is neither a file nor one of the covers "
            f"{', '.join(fixtures.cover_names())}")


def _query_from_args(args, parser):
    """(query, display name of the source complex)."""
    ring = ring_from_code(args.ring)
    variance = args.variance
    if getattr(args, "scat", None):
        K = _resolve_complex(args.scat)
        return scat_query(K, ring, variance), args.scat
    if getattr(args, "tc", None):
        K = _resolve_complex(args.tc)
        return stc_query(K, ring, variance), f"{args.tc} x {args.tc}"
    if getattr(args, "complex", None):
        if not (args.phi and args.psi and args.target):
            parser.error("--complex needs --target, --phi and --psi")
        K = _resolve_complex(args.complex)
        L = _resolve_complex(args.target)
        phi = fileio.read_map(args.phi, K, L)
        psi = fileio.read_map(args.psi, K, L)
        return DistanceQuery(phi, psi, ring, variance), args.complex
    parser.error("choose a query: --scat CX, --tc CX, or --complex/--target/--phi/--psi")


# ---------------------------------------------------------------------------
# commands


def cmd_info(args, parser):
    K = _resolve_complex(args.complex)
    data = {
        "vertices": len(K.vertices),
        "f_vector": list(K.f_vector()),
        "dim": K.dim,
        "euler_characteristic": K.euler_characteristic(),
        "connected": K.is_connected(),
        "maximal_faces": len(K.maximal_faces),
    }
    lines = [
        f"vertices: {data['vertices']}",
        f"f-vector: {tuple(data['f_vector'])}",
        f"dim: {data['dim']}   chi: {data['euler_characteristic']}",
        f"connected: {data['connected']}   maximal faces: {data['maximal_faces']}",
    ]
    return Report("info", "ok", data, lines=lines)


def _cmd_groups(args, parser, variance):
    K = _resolve_complex(args.complex)
    ring = ring_from_code(args.ring)
    gm = cohomology(K, ring) if variance == COHOMOLOGY else homology(K, ring)
    groups = list(gm.group_strs())
    data = {"groups": groups, "betti": list(gm.betti())}
    sym = "H^" if variance == COHOMOLOGY else "H_"
    lines = [f"{sym}{d}({args.complex}; {ring}) = {g}" for d, g in enumerate(groups)]
    return Report(variance, "ok", data, ring=ring, variance=variance, lines=lines)


def cmd_homology(args, parser):
    return _cmd_groups(args, parser, HOMOLOGY)


def cmd_cohomology(args, parser):
    return _cmd_groups(args, parser, COHOMOLOGY)


def cmd_cuplength(args, parser):
    K = _resolve_complex(args.complex)
    ring = ring_from_code(args.ring)
    n = cup_length(K, ring)
    return Report("cuplength", "ok", {"cup_length": n}, ring=ring,
                  lines=[f"cup-length({args.complex}; {ring}) = {n}"])


def cmd_zdcl(args, parser):
    K = _resolve_complex(args.complex)
    ring = ring_from_code(args.ring)
    n = zero_divisor_cup_length(K, ring)
    return Report("zdcl", "ok", {"zero_divisor_cup_length": n}, ring=ring,
                  lines=[f"zero-divisor cup-length({args.complex}; {ring}) = {n}"])


def cmd_verify(args, parser):
    query, name = _query_from_args(args, parser)
    cover = _resolve_cover(args.cover, query.source)
    cert = verify(query, cover)
    data = {"query": name, "certificate": cert.to_dict()}
    lines = [f"cover of {name}: {len(cover.pieces)} pieces (n = {cert.n})"]
    if not cert.cover_ok:
        lines.append(f"cover property FAILS; missing simplex {cert.missing_simplex}")
    for r in cert.piece_reports:
        verdict = "equal" if r.equal else f"differs at degree {r.first_failing_degree}"
        lines.append(f"  piece {r.name}: {verdict}")
    status = "verified" if cert.verified else "not-verified"
    return Report("verify", status, data, ring=query.ring, variance=query.variance,
                  lines=lines)


def cmd_bounds(args, parser):
    query, name = _query_from_args(args, parser)
    cover = _resolve_cover(args.cover, query.source) if args.cover else None
    report = bounds_for(query, cover, args.strategy, args.budget, args.seed,
                        args.max_size, args.exhaustive)
    if args.scat:
        name = f"hscat({args.scat})"
    elif args.tc:
        name = f"hstc({args.tc})"
    else:
        name = f"distance({name})"
    data = {"query": name} | report.to_dict()
    lines = [f"{name} over {query.ring}:"]
    lines += [f"  note: {note}" for note in report.notes]
    lines.append(f"  lower {report.lower}   upper {report.upper}"
                 + (f"   exact {report.exact}" if report.exact is not None else "   (gap)"))
    status = "exact" if report.exact is not None else "gap"
    return Report("bounds", status, data, ring=query.ring, variance=query.variance,
                  lines=lines)


def cmd_subdivide(args, parser):
    K = _resolve_complex(args.complex)
    carrier = None
    current = K
    for _ in range(args.iterations):
        current, lam = barycentric_subdivision(current)
        carrier = lam if carrier is None else carrier.compose(lam)
    out = args.out or "sd"
    fileio.write_complex(current, out + ".cx",
                         comment=f"sd^{args.iterations} of {args.complex}")
    if carrier is not None:
        fileio.write_map(carrier, out + ".map")
    data = {"iterations": args.iterations, "f_vector": list(current.f_vector()),
            "files": [out + ".cx"] + ([out + ".map"] if carrier else [])}
    lines = [f"sd^{args.iterations}({args.complex}): f-vector {current.f_vector()}",
             f"wrote {', '.join(data['files'])}"]
    return Report("subdivide", "ok", data, lines=lines)


def cmd_product(args, parser):
    A = _resolve_complex(args.complex_a)
    B = _resolve_complex(args.complex_b)
    P, pi1, pi2 = product(A, B)
    data = {"f_vector": list(P.f_vector()),
            "euler_characteristic": P.euler_characteristic()}
    lines = [f"{args.complex_a} x {args.complex_b}: f-vector {P.f_vector()}, "
             f"chi {P.euler_characteristic()}"]
    if args.out:
        fileio.write_complex(P, args.out + ".cx",
                             comment=f"{args.complex_a} x {args.complex_b}")
        fileio.write_map(pi1, args.out + ".pi1.map")
        fileio.write_map(pi2, args.out + ".pi2.map")
        data["files"] = [args.out + ".cx", args.out + ".pi1.map", args.out + ".pi2.map"]
        lines.append(f"wrote {', '.join(data['files'])}")
    return Report("product", "ok", data, lines=lines)


# ---------------------------------------------------------------------------


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


_nonnegative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _add_ring(p):
    p.add_argument("--ring", default="z2", help="z, q, z2, or zp:<p> (default z2)")


def _add_query_args(p):
    p.add_argument("--scat", metavar="CX", help="category query on CX")
    p.add_argument("--tc", metavar="CX", help="complexity query on CX")
    p.add_argument("--complex", metavar="CX", help="source complex for a map pair")
    p.add_argument("--target", metavar="CX", help="target complex for a map pair")
    p.add_argument("--phi", metavar="MAPFILE")
    p.add_argument("--psi", metavar="MAPFILE")
    _add_ring(p)
    p.add_argument("--variance", choices=[COHOMOLOGY, HOMOLOGY], default=COHOMOLOGY)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cohodist",
        description="Exact simplicial cohomology, cup products, and "
                    "cohomological-distance cover certificates.")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="f-vector, connectivity, Euler characteristic")
    p.add_argument("complex")
    p.set_defaults(func=cmd_info)

    for name, fn in (("homology", cmd_homology), ("cohomology", cmd_cohomology)):
        p = sub.add_parser(name, help=f"graded {name} groups")
        p.add_argument("complex")
        _add_ring(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("cuplength", help="cup-length of H^{>0}")
    p.add_argument("complex")
    _add_ring(p)
    p.set_defaults(func=cmd_cuplength)

    p = sub.add_parser("zdcl", help="zero-divisor cup-length (field coefficients)")
    p.add_argument("complex")
    _add_ring(p)
    p.set_defaults(func=cmd_zdcl)

    p = sub.add_parser("verify", help="verify a cover certificate")
    _add_query_args(p)
    p.add_argument("--cover", required=True, metavar="COVER")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="lower/upper bounds on a distance query")
    _add_query_args(p)
    p.add_argument("--cover", metavar="COVER", help="verify this cover for the upper bound")
    p.add_argument("--strategy", choices=["auto", "exhaustive", "greedy"], default="auto")
    p.add_argument("--budget", type=_nonnegative_int, default=2 ** 24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=_positive_int, default=None)
    p.add_argument("--exhaustive", type=int, default=None, metavar="N",
                   help="force exhaustive search for covers of up to N pieces")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("subdivide", help="write an iterated barycentric subdivision")
    p.add_argument("complex")
    p.add_argument("--iterations", type=_nonnegative_int, default=1)
    p.add_argument("--out", help="output prefix (default 'sd')")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("product", help="staircase product of two complexes")
    p.add_argument("complex_a")
    p.add_argument("complex_b")
    p.add_argument("--out", help="output prefix")
    p.set_defaults(func=cmd_product)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.func(args, parser)
    except CohodistError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report.elapsed = time.perf_counter() - t0
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
