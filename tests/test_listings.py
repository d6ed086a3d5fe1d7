"""The paper's listings reproduced end to end."""

import pytest

from polyproj.afi import AfiConfig, afi_project
from polyproj.chm import chm_project
from polyproj.fme import fme_project
from polyproj.lp import ConstraintSystem, normalize_face
from polyproj.matrixfile import reorder_to
from polyproj.scenarios import parse_scenario
from polyproj.verify import MATCH, compare_listings, fixture_names, load_fixture

#: Shannon classes of the observed variables that cca-3.txt leaves out:
#: I(2:3|1), H(3|12) and I(2:3), as coefficient maps over column names.
CCA3_SHANNON_EXTRA = (
    {"12": 1, "13": 1, "1": -1, "123": -1},
    {"123": 1, "12": -1},
    {"2": 1, "3": 1, "23": -1},
)


@pytest.mark.parametrize("name", fixture_names())
def test_each_listing_reads_onto_its_scenario(name):
    # the columns of every bundled listing are its scenario's observables
    listing = load_fixture(name)
    spec = next(c.split(":", 1)[1].strip() for c in listing.comments
                if c.startswith("scenario:"))
    names = parse_scenario(spec).scenario.observable_names
    assert reorder_to(listing.system, names).rows


@pytest.fixture(scope="module")
def cca3():
    return parse_scenario("cca:3")


@pytest.fixture(scope="module")
def cca3_fme(cca3):
    return fme_project(cca3.system, cca3.scenario.d)


def test_fme_reproduces_cca3_listing(cca3, cca3_fme):
    names = cca3.scenario.observable_names
    golden = reorder_to(load_fixture("cca-3").system, names)
    report = compare_listings(cca3_fme, golden, cca3.group)
    assert report.missing == ()
    extra = {
        min(cca3.group.orbit(normalize_face([form.get(x, 0) for x in names], 0)))
        for form in CCA3_SHANNON_EXTRA
    }
    assert len(extra) == 3
    assert set(report.extra) == extra


def test_chm_agrees_with_fme_on_cca3(cca3, cca3_fme):
    hull = chm_project(cca3.system, cca3.scenario.d, group=cca3.group)
    assert set(hull.facets) == {normalize_face(r.f, r.b) for r in cca3_fme.rows}


@pytest.fixture(scope="module")
def bell08d():
    return parse_scenario("bell:3x2:body=3")


@pytest.fixture(scope="module")
def bell08d_chm(bell08d):
    return chm_project(bell08d.system, bell08d.scenario.d, group=bell08d.group).facets


def _assert_matches(bell, facets, fixture):
    names = bell.scenario.observable_names
    computed = ConstraintSystem(tuple(facets), bell.scenario.d, names)
    golden = reorder_to(load_fixture(fixture).system, names)
    assert compare_listings(computed, golden, bell.group).relation == MATCH


def test_chm_reproduces_bell_08d_listing(bell08d, bell08d_chm):
    _assert_matches(bell08d, bell08d_chm, "bell-08d")


@pytest.mark.slow
def test_afi_reproduces_bell_08d_listing(bell08d, bell08d_chm):
    cfg = AfiConfig(depth=1, group=bell08d.group)
    facets = afi_project(bell08d.system, bell08d.scenario.d, cfg)
    _assert_matches(bell08d, facets, "bell-08d")
    assert set(facets) == set(bell08d_chm)


@pytest.mark.slow
def test_afi_reproduces_bell_12d_listing():
    bell = parse_scenario("bell:3x2:body=2")
    facets = afi_project(bell.system, bell.scenario.d, AfiConfig(depth=1, group=bell.group))
    _assert_matches(bell, facets, "bell-12d")


@pytest.mark.slow
def test_afi_reproduces_bell_14d_listing():
    bell = parse_scenario("bell:3x2:body=1,3")
    facets = afi_project(bell.system, bell.scenario.d, AfiConfig(depth=1, group=bell.group))
    _assert_matches(bell, facets, "bell-14d")
