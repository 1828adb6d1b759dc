import json
import os
import random
import re
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

import cohodist
from cohodist import cli, distance, fileio
from cohodist.complexes import (
    Cover,
    SimplicialMap,
    Subcomplex,
    barycentric_subdivision,
    from_maximal_faces,
    product,
)
from cohodist.errors import CohodistError, ParseError, UnwritableLabelError
from cohodist.fixtures import fixture_complex, fixture_cover


class TestLabels:
    def test_round_trip(self):
        for label in (3, -1, "a", (0, 1), ((0, 1), (0, 2)), (5,)):
            token = fileio._label_token(label)
            assert fileio.parse_label(token) == label

    def test_bad_labels(self):
        for bad in ("", "a b", '"unclosed'):
            with pytest.raises(ValueError):
                fileio.parse_label(bad)


class TestComplexFiles:
    def test_round_trip_simple(self, tmp_path):
        K = fixture_complex("s2")
        path = tmp_path / "s2.cx"
        fileio.write_complex(K, path, comment="sphere")
        K2 = fileio.read_complex(path)
        assert K2 == K

    def test_round_trip_pair_labels(self, tmp_path):
        K = fixture_complex("c3xs2")
        path = tmp_path / "prod.cx"
        fileio.write_complex(K, path)
        assert fileio.read_complex(path) == K

    def test_round_trip_subdivision_labels(self, tmp_path):
        K, _ = barycentric_subdivision(fixture_complex("c3"))
        path = tmp_path / "sd.cx"
        fileio.write_complex(K, path)
        assert fileio.read_complex(path) == K

    def test_round_trip_vertex_named_like_header(self, tmp_path):
        # face lines start with the vertex order:1; only a first word that
        # is the keyword itself makes a header
        K = from_maximal_faces([["order:1", "a"], ["a", "b"], ["b", "order:1"]],
                               order=["order:1", "a", "b"])
        path = tmp_path / "k.cx"
        fileio.write_complex(K, path)
        assert fileio.read_complex(path) == K

    def test_round_trip_non_ascii_labels(self, tmp_path):
        # files are UTF-8 whatever the locale's encoding
        K = from_maximal_faces([["ä", "b", "ç"]])
        path = tmp_path / "k.cx"
        fileio.write_complex(K, path)
        assert "ä".encode("utf-8") in path.read_bytes()
        assert fileio.read_complex(path).vertices == K.vertices

    def test_round_trip_multiline_comment(self, tmp_path):
        # a comment's second line used to be written as a face line
        K = fixture_complex("s2")
        path = tmp_path / "s2.cx"
        fileio.write_complex(K, path, comment="sphere\n0,1,5")
        assert path.read_text().startswith("# sphere\n# 0,1,5\n")
        assert fileio.read_complex(path) == K

    def test_parse_error_line_number(self):
        with pytest.raises(ParseError) as err:
            fileio.complex_from_text("0,1\n0,((\n")
        assert err.value.line == 2

    def test_order_header_respected(self):
        K = fileio.complex_from_text("order: 2 0 1\n0,1,2\n")
        assert K.vertices == (2, 0, 1)

    def test_comments_and_blanks(self):
        K = fileio.complex_from_text("# a triangle\n\n0,1,2  # filled\n")
        assert K.f_vector() == (3, 3, 1)


class TestUnwritableLabels:
    """Writers refuse what their readers would not give back: each of these
    labels used to be written and read back as another label, or not read
    back at all.  Float and bool labels, once among them, are refused by
    the constructor before a writer sees them
    (``test_complex_constructor.test_unsupported_labels_refused``)."""

    BAD = ("7", "-3", "x ", ("a,b", 1), "a b", "a#b", "", "a\nb")

    def test_complex_refused(self, tmp_path):
        assert issubclass(UnwritableLabelError, CohodistError)
        for bad in self.BAD:
            K = from_maximal_faces([[bad, "u"], ["u", "w"], ["w", bad]],
                                   order=[bad, "u", "w"])
            path = tmp_path / "k.cx"
            with pytest.raises(UnwritableLabelError):
                fileio.write_complex(K, path)
            assert not path.exists()

    def test_each_label_checked_once(self, monkeypatch):
        calls = []
        parse = fileio.parse_label
        monkeypatch.setattr(fileio, "parse_label",
                            lambda token: calls.append(token) or parse(token))
        K = fixture_complex("s2")
        text = fileio.complex_to_text(K)
        assert sorted(calls) == sorted(map(str, K.vertices))
        assert fileio.complex_from_text(text) == K

    def test_map_refused(self, tmp_path):
        c3 = fixture_complex("c3")
        for bad in self.BAD + ("a->b",):
            K = from_maximal_faces([[bad, "u"], ["u", "w"], ["w", bad]],
                                   order=[bad, "u", "w"])
            phi = SimplicialMap(K, c3, {bad: 0, "u": 1, "w": 2})
            with pytest.raises(UnwritableLabelError):
                fileio.write_map(phi, tmp_path / "phi.map")
            if bad != "a->b":
                with pytest.raises(UnwritableLabelError):
                    fileio.write_map(SimplicialMap(c3, K, {0: bad, 1: "u", 2: "w"}),
                                     tmp_path / "psi.map")
        assert not list(tmp_path.iterdir())
        # an arrow inside a target label reads back
        K = from_maximal_faces([["a->b", "u"], ["u", "w"], ["w", "a->b"]])
        psi = SimplicialMap(c3, K, {0: "a->b", 1: "u", 2: "w"})
        fileio.write_map(psi, tmp_path / "psi.map")
        assert fileio.read_map(tmp_path / "psi.map", c3, K).assignment == psi.assignment

    def test_cover_refused(self, tmp_path):
        s2 = fixture_complex("s2")
        for name in ("a#b", " a", "a ", "a\nb", "#"):
            cov = Cover(s2, [Subcomplex.spanned_by(s2, s2.maximal_faces, name=name)])
            with pytest.raises(UnwritableLabelError):
                fileio.write_cover(cov, tmp_path / "c.cover")
        for bad in self.BAD:
            K = from_maximal_faces([[bad, "u"], ["u", "w"], ["w", bad]],
                                   order=[bad, "u", "w"])
            with pytest.raises(UnwritableLabelError):
                fileio.write_cover(Cover.from_face_lists(K, [K.maximal_faces]),
                                   tmp_path / "c.cover")
        assert not list(tmp_path.iterdir())
        # a name with inner spaces reads back
        cov = Cover(s2, [Subcomplex.spanned_by(s2, s2.maximal_faces, name="piece one")])
        fileio.write_cover(cov, tmp_path / "c.cover")
        assert fileio.read_cover(tmp_path / "c.cover", s2).pieces[0].name == "piece one"


class TestCoverAndMapFiles:
    def test_cover_round_trip(self, tmp_path):
        cov = fixture_cover("table2")
        path = tmp_path / "cover.txt"
        fileio.write_cover(cov, path)
        cov2 = fileio.read_cover(path, cov.parent)
        assert [p.simplices for p in cov2.pieces] == [p.simplices for p in cov.pieces]
        assert [p.name for p in cov2.pieces] == [p.name for p in cov.pieces]

    def test_cover_round_trip_vertex_named_like_header(self, tmp_path):
        K = from_maximal_faces([["piece0", "q"], ["q", "r"], ["r", "piece0"]],
                               order=["piece0", "q", "r"])
        cov = Cover.from_face_lists(K, [[["piece0", "q"]],
                                        [["q", "r"], ["piece0", "r"]]])
        path = tmp_path / "cover.txt"
        fileio.write_cover(cov, path)
        cov2 = fileio.read_cover(path, K)
        assert [p.simplices for p in cov2.pieces] == [p.simplices for p in cov.pieces]
        assert [p.name for p in cov2.pieces] == ["K0", "K1"]

    def test_map_round_trip(self, tmp_path):
        K = fixture_complex("s2")
        P, pi1, _ = product(K, K)
        path = tmp_path / "pi1.map"
        fileio.write_map(pi1, path)
        pi1b = fileio.read_map(path, P, K)
        assert pi1b.assignment == pi1.assignment

    def test_byte_order_mark_is_no_label(self, tmp_path):
        # a file saved with a UTF-8 byte-order mark reads as the same file
        # without one: the circle stays a circle, and cover and map files
        # parse from their first line
        def with_bom(path):
            bommed = path.with_name("bom_" + path.name)
            bommed.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            return bommed

        circle = tmp_path / "c3.cx"
        circle.write_text("0,1\n1,2\n2,0\n", encoding="utf-8")
        K = fileio.read_complex(with_bom(circle))
        assert K == fileio.read_complex(circle)
        assert K.vertices == fixture_complex("c3").vertices
        cov = fixture_cover("table2")
        fileio.write_cover(cov, tmp_path / "cover.txt")
        cov2 = fileio.read_cover(with_bom(tmp_path / "cover.txt"), cov.parent)
        assert [p.simplices for p in cov2.pieces] == [p.simplices for p in cov.pieces]
        assert [p.name for p in cov2.pieces] == [p.name for p in cov.pieces]
        S = fixture_complex("s2")
        P, pi1, _ = product(S, S)
        fileio.write_map(pi1, tmp_path / "pi1.map")
        assert fileio.read_map(with_bom(tmp_path / "pi1.map"), P, S).assignment == pi1.assignment

    def test_cover_requires_piece_header(self):
        with pytest.raises(ParseError):
            fileio.cover_from_text("0,1,2\n", fixture_complex("s2"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_info(self, capsys):
        code, out = run_cli(capsys, "info", "cp2")
        assert code == 0
        assert "f-vector: (9, 36, 84, 90, 36)" in out
        assert "chi: 3" in out

    def test_info_k5(self, capsys):
        code, out = run_cli(capsys, "info", "k5")
        assert code == 0 and "(5, 10)" in out and "chi: -5" in out

    def test_cohomology_rp2(self, capsys):
        code, out = run_cli(capsys, "cohomology", "rp2", "--ring", "z")
        assert code == 0
        assert "H^0(rp2; Z) = Z" in out
        assert "H^1(rp2; Z) = 0" in out
        assert "H^2(rp2; Z) = Z_2" in out

    def test_cohomology_rp3_mod2(self, capsys):
        code, out = run_cli(capsys, "--json", "cohomology", "rp3", "--ring", "z2")
        assert code == 0
        assert json.loads(out)["data"]["betti"] == [1, 1, 1, 1]

    def test_verify_table2(self, capsys):
        code, out = run_cli(capsys, "verify", "--scat", "rp3",
                            "--cover", "table2", "--ring", "z2")
        assert code == 0 and "status: verified" in out

    def test_verify_table4_fails_cover(self, capsys):
        code, out = run_cli(capsys, "verify", "--tc", "s2",
                            "--cover", "table4", "--ring", "z2")
        assert code == 1
        assert "cover property FAILS" in out

    def test_bounds_k5(self, capsys):
        code, out = run_cli(capsys, "bounds", "--scat", "k5", "--ring", "z2",
                            "--exhaustive", "2")
        assert code == 0
        assert "no cover with 2 pieces (exhaustive)" in out
        assert "exact 2" in out

    def test_bounds_exhaustive_over_budget_says_greedy(self, capsys):
        # 7^10 assignments at 3 pieces exceed the budget: auto searches greedily
        code, out = run_cli(capsys, "--json", "bounds", "--scat", "k5", "--ring", "z2",
                            "--exhaustive", "3")
        data = json.loads(out)["data"]
        assert code == 0 and (data["lower"], data["exact"]) == (2, 2)
        assert data["notes"] == [
            "no cover with 2 pieces (exhaustive)",
            "exhaustive search at 3 pieces exceeds the budget of 16777216; "
            "searched greedily"]
        code, out = run_cli(capsys, "bounds", "--scat", "k5", "--ring", "z2",
                            "--exhaustive", "3", "--budget", str(7 ** 10))
        assert code == 0 and "searched greedily" not in out and "exact 2" in out

    def test_exhaustive_changes_only_greedy(self, capsys):
        # auto already searches 2 pieces of k5 exhaustively: the flag adds nothing
        def report(*extra):
            code, out = run_cli(capsys, "--json", "bounds", "--scat", "k5",
                                "--ring", "z2", *extra)
            payload = json.loads(out)
            del payload["elapsed_seconds"]
            return code, payload

        plain = report()
        assert report("--exhaustive", "2") == plain
        assert plain[1]["data"]["notes"][0] == "no cover with 2 pieces (exhaustive)"
        # greedy searches exhaustively only up to N, and past the budget exits 2
        assert report("--strategy", "greedy", "--exhaustive", "2")[1]["data"] == \
            plain[1]["data"]
        code, payload = report("--strategy", "greedy")
        assert code == 1 and payload["data"]["notes"][0] == \
            "greedy found no cover with 2 pieces"
        assert cli.main(["bounds", "--scat", "k5", "--ring", "z2",
                         "--strategy", "greedy", "--exhaustive", "3"]) == 2
        assert "exceeds the budget" in capsys.readouterr().err

    def test_homology_rp3(self, capsys):
        code, out = run_cli(capsys, "homology", "rp3", "--ring", "z")
        assert code == 0
        assert "H_1(rp3; Z) = Z_2" in out and "H_3(rp3; Z) = Z" in out
        code, out = run_cli(capsys, "--json", "homology", "rp3", "--ring", "z")
        payload = json.loads(out)
        assert payload["variance"] == "homology"
        assert payload["data"]["groups"] == ["Z", "Z_2", "0", "Z"]

    def test_bounds_map_pair(self, capsys, tmp_path):
        # constant versus identity on s2, read from map files: the category
        phi, psi = tmp_path / "const.map", tmp_path / "id.map"
        phi.write_text("0 -> 0\n1 -> 0\n2 -> 0\n3 -> 0\n")
        psi.write_text("0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n")
        code, out = run_cli(capsys, "--json", "bounds", "--complex", "s2",
                            "--target", "s2", "--phi", str(phi), "--psi", str(psi))
        data = json.loads(out)["data"]
        assert code == 0 and data["query"] == "distance(s2)" and data["exact"] == 1

    def test_unknown_cover_name(self, capsys):
        assert cli.main(["verify", "--scat", "s2", "--cover", "table9"]) == 2
        assert "is neither a file nor one of the covers" in capsys.readouterr().err

    def test_write_error_exit_code(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "sd")
        assert cli.main(["subdivide", "s2", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out

    def test_bounds_point(self, capsys):
        code, out = run_cli(capsys, "bounds", "--scat", "point", "--ring", "z2")
        assert code == 0 and "exact 0" in out

    def test_subdivide_figure1_twice(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "fig")
        code, out = run_cli(capsys, "subdivide", "figure1", "--iterations", "2",
                            "--out", out_prefix)
        assert code == 0
        K = fileio.read_complex(out_prefix + ".cx")
        assert K.euler_characteristic() == 1

    def test_subdivide_k5(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "sdk5")
        code, out = run_cli(capsys, "subdivide", "k5", "--out", out_prefix)
        assert code == 0 and "(15, 20)" in out

    def test_product_files(self, capsys, tmp_path):
        out_prefix = str(tmp_path / "prod")
        code, out = run_cli(capsys, "product", "c3", "s2", "--out", out_prefix)
        assert code == 0
        P = fileio.read_complex(out_prefix + ".cx")
        assert P.f_vector() == (12, 48, 72, 36)
        back = fileio.read_map(out_prefix + ".pi1.map", P, fixture_complex("c3"))
        assert all(back((u, v)) == u for (u, v) in P.vertices)

    def test_input_error_exit_code(self, capsys):
        assert cli.main(["info", "nonexistent-fixture"]) == 2

    def test_bad_prime_ring_code_exit_code(self, capsys):
        for code in ("zp:x", "zp:", "zp:3.5", "zp:-3"):
            assert cli.main(["cohomology", "s2", "--ring", code]) == 2
            assert "unknown ring code" in capsys.readouterr().err

    def test_large_prime_moduli(self, capsys):
        # 2^61 - 1 is prime, and decided at once; 2^89 - 1 is prime too, but
        # past the bound below which the primality test is exact
        code, out = run_cli(capsys, "cohomology", "s2", "--ring", f"zp:{2 ** 61 - 1}")
        assert code == 0 and f"H^2(s2; Z_{2 ** 61 - 1}) = Z_{2 ** 61 - 1}" in out
        assert cli.main(["cohomology", "s2", "--ring", f"zp:{2 ** 89 - 1}"]) == 2
        err = capsys.readouterr().err
        assert "prime moduli must be below 3317044064679887385961981" in err

    def test_negative_counts_rejected(self, capsys, tmp_path):
        out = str(tmp_path / "sd")
        for argv in (["bounds", "--scat", "k5", "--budget", "-5"],
                     ["subdivide", "k5", "--iterations", "-1", "--out", out]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "must be at least 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_one_query_form(self, capsys):
        # "bounds --scat s2 --tc s2" used to run the category query
        for command in ("bounds", "verify"):
            for forms in (["--scat", "s2", "--tc", "s2"],
                          ["--tc", "s2", "--complex", "s2"],
                          ["--scat", "s2", "--complex", "s2"]):
                with pytest.raises(SystemExit) as exc:
                    cli.main([command, *forms, "--cover", "table2"])
                assert exc.value.code == 2
                captured = capsys.readouterr()
                assert "not allowed with argument" in captured.err and not captured.out

    def test_map_arguments_need_complex(self, capsys):
        # these used to be ignored, a missing map file never read
        for command in ("bounds", "verify"):
            for form in (["--scat", "s2"], ["--tc", "s2"]):
                for extra in (["--phi", "nowhere.map"], ["--psi", "nowhere.map"],
                              ["--target", "k5"]):
                    with pytest.raises(SystemExit) as exc:
                        cli.main([command, *form, *extra, "--cover", "table2"])
                    assert exc.value.code == 2
                    captured = capsys.readouterr()
                    assert "go with --complex" in captured.err and not captured.out

    def test_max_size_below_one_rejected(self, capsys):
        for value in ("-1", "0"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["bounds", "--scat", "k5", "--max-size", value])
            assert exc.value.code == 2
            assert "must be at least 1" in capsys.readouterr().err

    def test_exhaustive_below_one_rejected(self, capsys):
        # these used to run as if the flag were absent
        for extra in (["--exhaustive", "-3"], ["--exhaustive", "0"],
                      ["--strategy", "greedy", "--exhaustive", "0"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--json", "bounds", "--scat", "k5", "--ring", "z2", *extra])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "must be at least 1" in captured.err and not captured.out

    def test_bounds_honours_variance(self, capsys):
        code, out = run_cli(capsys, "--json", "bounds", "--scat", "rp2", "--ring", "z")
        report = json.loads(out)
        assert code == 0 and report["variance"] == "cohomology"
        assert report["data"]["query"] == "hscat(rp2)"
        assert report["data"]["exact"] == 1
        # homology is answered in its own right: over Z the lower bound is
        # the cup-length over Q, and exhaustive search rejects 2 pieces
        code, out = run_cli(capsys, "--json", "bounds", "--scat", "rp2", "--ring", "z",
                            "--variance", "homology")
        report = json.loads(out)
        assert code == 0 and report["variance"] == "homology"
        assert report["data"]["exact"] == 2
        # over a field the two variances give one verdict per piece
        reports = {}
        for variance in ("cohomology", "homology"):
            code, out = run_cli(capsys, "--json", "bounds", "--tc", "s2", "--ring", "zp:3",
                                "--variance", variance)
            assert code == 0
            reports[variance] = json.loads(out)
        assert reports["homology"]["variance"] == "homology"
        assert reports["homology"]["data"] == reports["cohomology"]["data"]

    def test_zdcl(self, capsys):
        code, out = run_cli(capsys, "zdcl", "c3", "--ring", "z2")
        assert code == 0 and "= 1" in out
        assert cli.main(["zdcl", "c3", "--ring", "z"]) == 2

    def test_bounds_tc_sphere_over_z3(self, capsys):
        # the squared difference class survives away from characteristic 2,
        # so the two bounds meet at 2
        code, out = run_cli(capsys, "bounds", "--tc", "s2", "--ring", "zp:3",
                            "--seed", "0")
        assert code == 0 and "exact 2" in out

    def test_verify_map_pair_from_files(self, capsys, tmp_path):
        # same map twice, one-piece cover: verified with n = 0
        s2 = fixture_complex("s2")
        from cohodist.complexes import Cover, SimplicialMap, Subcomplex

        phi = SimplicialMap(s2, s2, {0: 0, 1: 1, 2: 2, 3: 0})
        map_path = tmp_path / "phi.map"
        fileio.write_map(phi, map_path)
        cover_path = tmp_path / "whole.cover"
        fileio.write_cover(Cover(s2, [Subcomplex.spanned_by(
            s2, s2.maximal_faces, name="K")]), cover_path)
        cx_path = tmp_path / "s2.cx"
        fileio.write_complex(s2, cx_path)
        code, out = run_cli(capsys, "verify", "--complex", str(cx_path),
                            "--target", str(cx_path), "--phi", str(map_path),
                            "--psi", str(map_path), "--cover", str(cover_path),
                            "--ring", "z")
        assert code == 0 and "(n = 0)" in out and "status: verified" in out


class TestBadInputFiles:
    """Malformed input files exit 2 and name the offending line."""

    def run_bad(self, capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out

    def test_cover_vertex_outside_parent(self, capsys, tmp_path):
        path = tmp_path / "bad.cover"
        path.write_text("piece A\n0,1,2\npiece B\n0,1,9\n")
        self.run_bad(capsys, ["verify", "--scat", "s2", "--cover", str(path)],
                     "line 4: 9 is not a vertex of the complex")

    def test_cover_face_not_a_simplex(self, capsys, tmp_path):
        # every vertex exists, but s2 has no 3-simplex
        path = tmp_path / "bad.cover"
        path.write_text("piece A\n0,1,2\npiece B\n0,1,2,3\n1,2,3\n")
        self.run_bad(capsys, ["verify", "--scat", "s2", "--cover", str(path)],
                     "line 4: (0, 1, 2, 3) is not a simplex of the complex")

    def map_pair_argv(self, tmp_path, phi_text):
        identity = tmp_path / "id.map"
        identity.write_text("0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n")
        phi = tmp_path / "phi.map"
        phi.write_text(phi_text)
        return ["bounds", "--complex", "s2", "--target", "s2",
                "--phi", str(phi), "--psi", str(identity)]

    def test_map_vertex_listed_twice(self, capsys, tmp_path):
        # the last line used to win, and bounds reported "exact"
        argv = self.map_pair_argv(tmp_path, "0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n3 -> 0\n")
        self.run_bad(capsys, argv, "line 5: vertex 3 is mapped twice")

    def test_map_label_not_a_source_vertex(self, capsys, tmp_path):
        argv = self.map_pair_argv(tmp_path, "0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n7 -> 0\n")
        self.run_bad(capsys, argv, "line 5: 7 is not a vertex of the source complex")

    def test_map_fault_is_not_bad_input(self, tmp_path, monkeypatch):
        # only package errors are input errors; a fault in the program is not
        def broken(*args):
            raise TypeError("a fault in the program")

        monkeypatch.setattr(fileio, "SimplicialMap", broken)
        argv = self.map_pair_argv(tmp_path, "0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n")
        with pytest.raises(TypeError, match="a fault in the program"):
            cli.main(argv)

    def test_budget_beyond_table_index(self, capsys, monkeypatch):
        # 3^96 assignments fit the budget, but the table of 2^96 verdicts
        # cannot be indexed; the search stops before any piece evaluation
        calls = []
        inner = distance.equality_obstruction

        def counted(*args, **kwargs):
            calls.append(kwargs.get("piece"))
            return inner(*args, **kwargs)

        monkeypatch.setattr(distance, "equality_obstruction", counted)
        self.run_bad(capsys, ["bounds", "--tc", "s2", "--ring", "z2",
                              "--strategy", "exhaustive", "--budget", str(10 ** 50)],
                     "a table of 2^96 verdicts is too large to index")
        assert calls == []

    def test_files_that_are_not_utf8(self, capsys, tmp_path):
        # 200 random bytes used to stop the reader with a UnicodeDecodeError
        # traceback and exit 1, the code of "not verified"
        junk = bytes(random.Random(0).randrange(128, 256) for _ in range(200))
        path = tmp_path / "junk.bin"
        path.write_bytes(junk)
        self.run_bad(capsys, ["info", str(path)], "is not UTF-8 text")
        self.run_bad(capsys, ["verify", "--scat", "s2", "--cover", str(path)],
                     "is not UTF-8 text")
        identity = tmp_path / "id.map"
        identity.write_text("0 -> 0\n1 -> 1\n2 -> 2\n3 -> 3\n", encoding="utf-8")
        self.run_bad(capsys, ["bounds", "--complex", "s2", "--target", "s2",
                              "--phi", str(path), "--psi", str(identity)],
                     "is not UTF-8 text")
        s2 = fixture_complex("s2")
        for read in (lambda: fileio.read_complex(path),
                     lambda: fileio.read_cover(path, s2),
                     lambda: fileio.read_map(path, s2, s2)):
            with pytest.raises(ParseError, match="byte 0"):
                read()

    def test_complex_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.cx"
        for text, message in (
                ("0,1\norder: 0 1\n", "line 2: order header must precede faces"),
                ('order: 0 a"b\n0,1\n', "line 1: bad label"),
                ("# no faces\n", "no faces found")):
            path.write_text(text)
            self.run_bad(capsys, ["info", str(path)], message)

    def test_cover_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.cover"
        for text, message in (
                ("piece A\npiece B\n0,1,2\n", "line 2: piece 'A' has no faces"),
                ("piece A\n0,1,2\npiece A\n0,1,3\n", "line 3: piece name 'A' given twice"),
                # an unnamed second piece is named K1 by default
                ("piece K1\n0,1,2\npiece\n0,1,3\n", "line 3: piece name 'K1' given twice"),
                ("# no pieces\n", "no pieces found")):
            path.write_text(text)
            self.run_bad(capsys, ["verify", "--scat", "s2", "--cover", str(path)],
                         message)

    def test_map_errors(self, capsys, tmp_path):
        for text, message in (
                ("0 -> 0\n1 1\n", "line 2: expected 'u -> v'"),
                ("0 -> 0\n1 -> (1\n", "line 2: bad label"),
                ("0 -> 0\n1 -> 1\n2 -> 2\n3 -> 0\n",
                 "image of (0, 1, 2) is not a simplex")):
            argv = self.map_pair_argv(tmp_path, text)
            argv[argv.index("--target") + 1] = "c3"  # s2 onto a circle
            self.run_bad(capsys, argv, message)

    def test_second_order_header(self, capsys, tmp_path):
        # the second header used to replace the first
        path = tmp_path / "two.cx"
        path.write_text("order: 0 1 2\norder: 2 1 0\n0,1,2\n")
        self.run_bad(capsys, ["info", str(path)], "line 2: order header given twice")


class TestJsonReports:
    def _schema(self):
        import importlib.resources as resources
        with resources.files("cohodist").joinpath("data/report.schema.json").open() as fh:
            return json.load(fh)

    def test_reports_validate_and_match_text(self, capsys):
        schema = self._schema()
        commands = [
            ["info", "s2"],
            ["cohomology", "rp2", "--ring", "z"],
            ["cuplength", "cp2", "--ring", "z2"],
            ["verify", "--scat", "cp2", "--cover", "table1", "--ring", "z2"],
            ["bounds", "--scat", "k5", "--ring", "z2", "--exhaustive", "2"],
        ]
        for argv in commands:
            code_json, out_json = run_cli(capsys, "--json", *argv)
            payload = json.loads(out_json)
            jsonschema.validate(payload, schema)
            code_text, out_text = run_cli(capsys, *argv)
            assert code_json == code_text
            assert payload["status"] in out_text


class TestParserReuse:
    """``main`` builds its parser on its first call and reuses it, so a
    run of calls in one process must print, call for call, what the same
    arguments print in a process of their own."""

    ARGVS = [
        ["info", "s2"],
        ["cohomology", "s2", "--ring", "zp:4"],  # bad input: exit 2
        ["bounds", "--scat", "s2", "--tc", "s2"],  # rejected by argparse: exit 2
        ["--help"],
        ["--json", "cohomology", "rp2", "--ring", "z2"],
        ["verify", "--help"],
        ["frobnicate"],  # rejected by argparse: exit 2
        ["bounds", "--scat", "k5", "--exhaustive", "2"],
        ["info", "k5"],
    ]

    @staticmethod
    def timeless(text):
        # the elapsed time is the one part of a report that may differ
        text = re.sub(r"\(\d+\.\d+s\)", "(Ts)", text)
        return re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": T', text)

    def fresh(self, argv):
        src = os.path.dirname(os.path.dirname(cohodist.__file__))
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from cohodist.cli import main; sys.exit(main())",
             *argv], capture_output=True, text=True, env=env, timeout=120)
        return done.returncode, self.timeless(done.stdout), self.timeless(done.stderr)

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(cli, "_parser", None)
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        codes = []
        for argv in self.ARGVS:
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse exits on --help and bad arguments
                code = e.code
            got = capsys.readouterr()
            assert (code, self.timeless(got.out), self.timeless(got.err)) == self.fresh(argv), argv
            codes.append(code)
        assert built == [1]
        assert codes == [0, 2, 2, 0, 0, 0, 2, 0, 0]

    def test_parser_built_on_first_call(self):
        # importing the CLI builds no parser, so functions rebound after the
        # import (as a tracer rebinds them) are the ones the parser calls
        src = os.path.dirname(os.path.dirname(cohodist.__file__))
        script = (
            "from cohodist import cli\n"
            "assert cli._parser is None\n"
            "calls = []\n"
            "cli.cmd_info = lambda args, parser: calls.append(args.complex) or "
            "cli.Report('info', 'ok', {})\n"
            "assert cli.main(['info', 's2']) == 0 and calls == ['s2']\n"
            "assert cli._parser is not None\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert done.returncode == 0, done.stderr


class TestClosedPipe:
    """A reader that closes the pipe early, as ``| head -c 10`` does, leaves
    the command's exit code as it was, with no traceback on stderr.  A
    reader that closes before the report is written makes the write fail
    every time; one that reads 10 bytes first is the ``head`` case."""

    @pytest.mark.parametrize("read, argv", [
        (0, ["--json", "cohomology", "s2xs2", "--ring", "z2"]),
        (10, ["--json", "cohomology", "s2xs2", "--ring", "z2"]),
        (0, ["cohomology", "s2xs2", "--ring", "z2"]),
    ])
    def test_exit_code_survives_a_closed_reader(self, read, argv):
        src = os.path.dirname(os.path.dirname(cohodist.__file__))
        proc = subprocess.Popen([sys.executable, "-m", "cohodist.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=src))
        try:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert err == ""
        assert code == 0
