import pytest

from polyproj.cli import main
from polyproj.lp import normalize_face
from polyproj.matrixfile import parse
from polyproj.scenarios import elemental_inequalities


@pytest.mark.parametrize("method", ["fme", "chm", "afi"])
def test_project_elemental3(capsys, method):
    assert main(["project", "elemental:3", "--method", method]) == 0
    out = parse(capsys.readouterr().out)
    assert "scenario: elemental:3" in out.comments
    want = {normalize_face(r.f, r.b) for r in elemental_inequalities(3).rows}
    assert set(out.system.rows) == want


def test_spec_with_surrounding_whitespace_prints_a_readable_header(capsys):
    assert main(["project", " elemental:3\n", "--method", "fme"]) == 0
    assert "scenario: elemental:3" in parse(capsys.readouterr().out).comments


def test_rfd_prints_the_facets_it_finds(capsys):
    # a budget that runs out prints the partial list under a "partial" line
    assert main(["project", "elemental:3", "--method", "rfd", "--budget", "2"]) == 1
    out = parse(capsys.readouterr().out)
    assert "method: rfd" in out.comments
    assert any(line.startswith("partial:") for line in out.comments)
    want = {normalize_face(r.f, r.b) for r in elemental_inequalities(3).rows}
    assert out.system.rows and set(out.system.rows) <= want
    # a budget that covers the walk finds every facet
    assert main(["project", "elemental:3", "--method", "rfd", "--budget", "1000"]) == 0
    out = parse(capsys.readouterr().out)
    assert set(out.system.rows) == want
    assert not any(line.startswith("partial:") for line in out.comments)


@pytest.mark.parametrize("argv", [
    ["--method", "rfd"],
    ["--method", "rfd", "--budget", "0"],
    ["--method", "afi", "--budget", "3"],
])
def test_rfd_budget_is_required_and_exclusive(argv):
    with pytest.raises(SystemExit) as err:
        main(["project", "elemental:3"] + argv)
    assert err.value.code == 2


def test_verify_reports_missing_classes(capsys):
    # The elemental cone lacks the non-Shannon classes listed for cca:3.
    assert main(["project", "elemental:3", "--verify", "cca-3"]) == 1
    assert capsys.readouterr().err.startswith("cca-3: mismatch")


def test_bad_arguments_exit_with_usage():
    with pytest.raises(SystemExit) as err:
        main(["project", "nonsense:3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["project", "elemental:3", "--verify", "no-such-listing"])
    # a listing whose columns are not the scenario's is refused before projecting
    with pytest.raises(SystemExit) as err:
        main(["project", "elemental:3", "--verify", "bell-08d"])
    assert err.value.code == 2
