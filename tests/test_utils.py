"""Tests for utilities (repro.utils)."""

import threading

import pytest

from repro.prefix import sklansky
from repro.utils import seed_sequence
from repro.utils import threads
from repro.utils.threads import (
    blas_budget,
    blas_libraries,
    blas_thread_counts,
    core_budget,
    usable_cores,
)
from repro.utils.plotting import ascii_plot, ascii_scatter, format_series_csv, render_prefix_graph
from repro.utils.tables import format_median_iqr, format_table


class TestRng:
    def test_seed_sequence_stable(self):
        assert seed_sequence(42, 5) == seed_sequence(42, 5)
        assert len(set(seed_sequence(42, 5))) == 5


class TestPlotting:
    def test_ascii_plot_contains_markers_and_legend(self):
        text = ascii_plot(
            {"a": ([0, 1, 2], [3.0, 2.0, 1.0]), "b": ([0, 1, 2], [1.0, 2.0, 3.0])},
            title="demo",
        )
        assert "demo" in text
        assert "* = a" in text and "o = b" in text

    def test_ascii_plot_handles_nan(self):
        text = ascii_plot({"a": ([0, 1], [float("nan"), 2.0])})
        assert "2" in text  # y-range shows the finite value

    def test_ascii_scatter_runs(self):
        text = ascii_scatter({"pts": ([1.0, 2.0], [1.0, 4.0])}, xlabel="area", ylabel="delay")
        assert "area" in text and "delay" in text

    def test_render_prefix_graph(self):
        text = render_prefix_graph(sklansky(4), label="skl4")
        lines = text.splitlines()
        assert lines[0] == "skl4"
        assert lines[1] == "o"  # row 0: diagonal only
        assert "nodes=" in lines[-1]
        # row widths are 1..n
        assert [len(l) for l in lines[1:5]] == [1, 2, 3, 4]

    def test_format_series_csv(self):
        csv = format_series_csv(["x", "y"], [[1, 2.5], [2, 3.5]])
        assert csv.splitlines()[0] == "x,y"
        assert "2.5" in csv


class TestTables:
    def test_median_iqr_format_matches_paper(self):
        assert format_median_iqr(4.54, 4.52, 4.55) == "4.54 (4.52 - 4.55)"

    def test_format_table_aligns(self):
        text = format_table(["method", "cost"], [["VAE", "4.54"], ["GA", "4.65"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("method")
        assert set(lines[1]) <= {"-", "+"}


@pytest.fixture
def blas_at_two():
    """Every loaded OpenBLAS build at 2 threads for the test (so a cap
    of 1 is observable even on a 1-CPU machine), restored afterwards."""
    libraries = blas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS build loaded")
    saved = {lib.path: lib.get_num_threads() for lib in libraries}
    _set_all(libraries, 2)
    yield libraries
    for lib in libraries:
        lib.set_num_threads(saved[lib.path])


def _set_all(libraries, count):
    for lib in libraries:
        lib.set_num_threads(count)


def _counts():
    return set(blas_thread_counts().values())


class TestBlasThreads:
    def test_found_builds_round_trip(self):
        libraries = blas_libraries()
        if not libraries:
            pytest.skip("no OpenBLAS build loaded")
        for lib in libraries:
            original = lib.get_num_threads()
            lib.set_num_threads(1)
            assert lib.get_num_threads() == 1
            lib.set_num_threads(original)
            assert lib.get_num_threads() == original
        assert len({lib.path for lib in libraries}) == len(libraries)

    def test_budget_caps_and_restores(self, blas_at_two):
        with blas_budget(1):
            assert _counts() == {1}
        assert _counts() == {2}

    def test_budget_restores_after_exception(self, blas_at_two):
        with pytest.raises(RuntimeError):
            with blas_budget(1):
                assert _counts() == {1}
                raise RuntimeError("boom")
        assert _counts() == {2}

    def test_never_raises_above_entry_count(self, blas_at_two):
        _set_all(blas_at_two, 1)  # e.g. OPENBLAS_NUM_THREADS=1
        with blas_budget(8):
            assert _counts() == {1}
        assert _counts() == {1}

    def test_nested_budget_takes_the_minimum(self, blas_at_two):
        with blas_budget(1):
            with blas_budget(2):
                assert _counts() == {1}
            assert _counts() == {1}
        assert _counts() == {2}

    def test_overlapping_budgets_from_two_threads(self, blas_at_two):
        # A enters first and exits first; B (the looser budget) is the
        # last one out and must restore the counts found before A.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with blas_budget(1):
                a_in.set()
                b_in.wait(10)
                seen["both"] = _counts()
            a_out.set()

        def second():
            a_in.wait(10)
            with blas_budget(2):
                b_in.set()
                a_out.wait(10)
                seen["b_alone"] = _counts()

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(10)
        assert seen == {"both": {1}, "b_alone": {2}}
        assert _counts() == {2}

    def test_core_budget_is_the_tightest_active_budget(self):
        assert core_budget() == usable_cores()
        with blas_budget(3):
            assert core_budget() == 3
            with blas_budget(1):
                assert core_budget() == 1
                with blas_budget(2):
                    assert core_budget() == 1
            assert core_budget() == 3
        assert core_budget() == usable_cores()

    def test_missing_library_is_a_silent_noop(self, monkeypatch):
        # A path that cannot be opened, as if no OpenBLAS were loaded.
        monkeypatch.setattr(threads, "_LIBRARIES", None)
        monkeypatch.setattr(
            threads, "_loaded_paths", lambda: ["/nonexistent/libopenblas.so"]
        )
        assert blas_libraries() == []
        assert blas_thread_counts() == {}
        with blas_budget(1):
            pass
        assert threads._ACTIVE == [] and threads._SAVED == {}

    def test_builds_are_found_once(self, monkeypatch):
        blas_libraries()
        scans = []
        monkeypatch.setattr(threads, "_loaded_paths", lambda: scans.append(1) or [])
        before = blas_libraries()
        with blas_budget(1):
            pass
        assert scans == [] and blas_libraries() == before
