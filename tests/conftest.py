import pytest
from hypothesis import HealthCheck, settings

from polyproj import simplex

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def check_pivots(monkeypatch):
    """Checks the exact-division invariant before every simplex pivot: on an
    object copy of the tableau N, N*piv - outer (the column of the pivot
    times its row) is divisible by the current det, by which the pivot
    divides."""
    pivot = simplex._Tableau.pivot

    def checked(self, r, s):
        N = self.N.astype(object)
        R = N * N[r, s] - N[:, s, None] * N[r]
        assert self.det == 1 or not (R % self.det).any(), "pivot divisibility violated"
        return pivot(self, r, s)

    monkeypatch.setattr(simplex._Tableau, "pivot", checked)
