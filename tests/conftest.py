import pytest

from flatclust import spatial


@pytest.fixture(params=["whole", "sorted"])
def index_path(request, monkeypatch):
    """Run a GridIndex test once through each band of the sweep off a line.

    A scan budget of 0 sends every query with work to sorted bands; one
    past every fixture's work makes every band all of the points.
    """
    monkeypatch.setattr(spatial, "_SCAN_BUDGET", 0 if request.param == "sorted" else 1 << 62)
    return request.param
