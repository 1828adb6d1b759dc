import json

import pytest

jsonschema = pytest.importorskip("jsonschema")

from cohodist import cli, fileio
from cohodist.complexes import barycentric_subdivision, product
from cohodist.errors import ParseError
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


class TestCoverAndMapFiles:
    def test_cover_round_trip(self, tmp_path):
        cov = fixture_cover("table2")
        path = tmp_path / "cover.txt"
        fileio.write_cover(cov, path)
        cov2 = fileio.read_cover(path, cov.parent)
        assert [p.simplices for p in cov2.pieces] == [p.simplices for p in cov.pieces]
        assert [p.name for p in cov2.pieces] == [p.name for p in cov.pieces]

    def test_map_round_trip(self, tmp_path):
        K = fixture_complex("s2")
        P, pi1, _ = product(K, K)
        path = tmp_path / "pi1.map"
        fileio.write_map(pi1, path)
        pi1b = fileio.read_map(path, P, K)
        assert pi1b.assignment == pi1.assignment

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

    def test_negative_counts_rejected(self, capsys, tmp_path):
        out = str(tmp_path / "sd")
        for argv in (["bounds", "--scat", "k5", "--budget", "-5"],
                     ["subdivide", "k5", "--iterations", "-1", "--out", out]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "must be at least 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_max_size_below_one_rejected(self, capsys):
        for value in ("-1", "0"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["bounds", "--scat", "k5", "--max-size", value])
            assert exc.value.code == 2
            assert "must be at least 1" in capsys.readouterr().err

    def test_bounds_honours_variance(self, capsys):
        code, out = run_cli(capsys, "--json", "bounds", "--scat", "rp2", "--ring", "z")
        report = json.loads(out)
        assert code == 0 and report["variance"] == "cohomology"
        assert report["data"]["query"] == "hscat(rp2)"
        # the lower bound is a cup-length, so homology is refused, not
        # silently answered with cohomology
        for query in (["--scat", "rp2"], ["--tc", "s2"]):
            code = cli.main(["--json", "bounds", *query, "--ring", "z",
                             "--variance", "homology"])
            captured = capsys.readouterr()
            assert code == 2 and not captured.out
            assert "applies to the cohomology variance" in captured.err

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
