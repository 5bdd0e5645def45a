"""Tests for the commercial-tool emulation (repro.synth.commercial)."""

import pytest

from repro.prefix import sklansky
from repro.synth import CommercialTool, scaled_library, synthesize


@pytest.fixture(scope="module")
def tool():
    return CommercialTool(scaled_library("8nm"))


def test_domain_gap_exists(tool):
    """The commercial evaluation differs from the search-time flow — the
    premise of the Fig. 6 experiment."""
    graph = sklansky(16)
    search_flow = synthesize(graph, scaled_library("8nm"))
    commercial = tool.evaluate(graph)
    assert commercial.delay_ns != pytest.approx(search_flow.delay_ns, rel=1e-6)


def test_commercial_is_no_slower(tool):
    """Higher effort + both mapping styles: the tool's result should not be
    slower than the default flow on the same graph."""
    graph = sklansky(16)
    search_flow = synthesize(graph, scaled_library("8nm"))
    commercial = tool.evaluate(graph)
    assert commercial.delay_ns <= search_flow.delay_ns * 1.05


def test_provided_adders_cover_classics(tool):
    offerings = tool.provided_adders(8)
    assert set(offerings) == {
        "ripple", "sklansky", "kogge_stone", "brent_kung", "han_carlson", "ladner_fischer",
    }
    assert all(r.area_um2 > 0 for r in offerings.values())


def test_deterministic(tool):
    a = tool.evaluate(sklansky(8))
    b = tool.evaluate(sklansky(8))
    assert (a.area_um2, a.delay_ns) == (b.area_um2, b.delay_ns)
