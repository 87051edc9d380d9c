"""The benchmark harness reaches blamekit's functions and caches by
attribute name: a rename must fail here, not only in a traced bench run."""
from pathlib import Path

from blamekit import attribution, planning, uncertainty

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    targets = tracing._targets()
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in targets
               if not hasattr(mod, attr)]
    assert missing == []


def test_the_caches_cleared_between_passes_exist():
    # workloads.clear_caches skips a cache it cannot find, so a renamed one
    # would carry its entries from one pass into the next without a word;
    # attribution._HELD is not cleared yet, which a traced pass shows as
    # MER primaries it does not solve again, and neither is
    # planning._VALUES_CACHE (ROADMAP 8), so a game rebuilt in a second pass
    # over the same item reads its coalition sweep from the first
    for module, name in ((planning, "_GAME_CACHE"),
                         (planning, "_VALUES_CACHE"),
                         (uncertainty, "_BOUNDS_CACHE"),
                         (attribution, "_HELD")):
        assert isinstance(getattr(module, name, None), dict), name
