import pytest

from flatclust import spatial


@pytest.fixture(params=["tree", "scan"])
def index_path(request, monkeypatch):
    """Run a GridIndex test once through each exact path off a line.

    A scan budget of 0 sends every query with work to the kd-tree; one past
    every fixture's work sends counts_within and pair_sq_dists to the scan.
    """
    monkeypatch.setattr(spatial, "_SCAN_BUDGET", 0 if request.param == "tree" else 1 << 62)
    return request.param
