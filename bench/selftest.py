"""The benchmark's own checks; not part of the package's test suite.

    python3 -m pytest -q bench/selftest.py

Takes a few minutes: the verdict check runs every workload once on each
of three seeds, and the count check makes a traced pass of ``search``.
"""

import contextlib
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
import time
from array import array

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from child import run_query  # noqa: E402
from workloads import (WORKLOADS, InputWriter, build_queries, check,  # noqa: E402
                       greedy_order_queries)


@pytest.fixture
def workdir():
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=run.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK)


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    return (not cmp.left_only and not cmp.right_only
            and not filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)[1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, workdir):
    a, b, c = (os.path.join(workdir, x) for x in "abc")
    names = [q["name"] for q in build_queries(workload, a, 7)]
    assert names == [q["name"] for q in build_queries(workload, b, 7)]
    assert len(set(names)) == len(names)
    build_queries(workload, c, 8)
    assert os.listdir(a)
    assert _same_tree(a, b)
    assert not _same_tree(a, c)


def test_complex_files_carry_a_seeded_order(workdir):
    def order_line(writer):
        with open(writer.complex("c3xs2")) as fh:
            return [line for line in fh if line.startswith("order:")]

    seeded = order_line(InputWriter(os.path.join(workdir, "seeded"), 0))
    fixture = order_line(InputWriter(os.path.join(workdir, "fixture"), 0,
                                     fixture_order=True))
    assert len(seeded) == len(fixture) == 1
    assert seeded != fixture


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_expected_verdicts_hold(workload, seed, workdir):
    result = run.run_pass(workload, seed, 0, workdir)
    assert result.failures == []
    assert result.attempted == len(build_queries(workload, workdir, seed))


@pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
def test_greedy_verdicts_hold_in_drawn_orders(seed, workdir):
    for query in greedy_order_queries(InputWriter(workdir, seed)):
        assert check(query, run_query(query)) is None, query["name"]


def test_piece_evaluation_counts_at_fixture_order(workdir):
    result, _ = run.measure_traced("search", 0, workdir, fixture_order=True)
    assert result["correct"]
    trace = tracer.load(os.path.join(workdir, "spans.pickle"))
    counts = trace["piece_evals_by_query"]
    assert counts["bounds tc s2 zp:3"] == 652
    assert counts["search exhaustive rp2 z2 2"] == 1023
    metrics = result["metrics"]
    assert metrics["distance.piece_evals"]["value"] == sum(counts.values())
    assert set(metrics) == set(tracer.layer_metrics(trace)) | {"trace_overhead_ratio"}


def test_self_time_subtracts_child_spans():
    trace = {
        "sites": [("homology", "cohomology"), ("exactalg.gf2", "gf2_kernel")],
        "site": array("i", [0, 1, 1]),
        "parent": array("i", [-1, 0, 0]),
        "start": array("d", [0.0, 1.0, 3.0]),
        "end": array("d", [10.0, 2.0, 6.0]),
    }
    times = tracer.self_times(trace)
    assert times["homology"] == pytest.approx(6.0)
    assert times["exactalg.gf2"] == pytest.approx(4.0)


def test_local_speed_takes_neighbours_until_enough_samples():
    k = run.LOCAL_SAMPLES
    speeds = run.local_speeds([(0.0, 0), (2.0 * k, k), (0.0, 0), (1.0 * k, k)])
    assert speeds == [2.0, 2.0, 1.5, 1.0]
    assert run.local_speeds([(0.0, 0)]) == [None]


def test_middle_fifth_mean_is_the_median_of_an_even_spread():
    assert run.middle_fifth_mean([5.0]) == 5.0
    assert run.middle_fifth_mean(range(10)) == 4.5
    assert run.middle_fifth_mean(range(11)) == 5.0
    # two clusters of latencies with a gap between them at the middle
    assert run.middle_fifth_mean([1.0] * 50 + [3.0] * 50) == 2.0
    assert run.middle_fifth_mean([1.0] * 49 + [3.0] * 51) == pytest.approx(2.1)


def test_sampler_counts_its_own_time():
    from reference import MIN_SAMPLES, Sampler
    sampler = Sampler()
    sampler.start()
    end = time.process_time() + 0.2
    while time.process_time() < end:
        pass
    speed = sampler.speed()
    assert len(sampler.speeds) >= MIN_SAMPLES
    assert speed > 0
    assert 0 < sampler.spent_s < 0.2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
