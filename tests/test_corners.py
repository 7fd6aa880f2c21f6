"""tools/corners.py, the A/B recorder: it reads the committed command lists
and, run with the working tree on both sides, records identical rows."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_corners():
    spec = importlib.util.spec_from_file_location("corners", ROOT / "tools" / "corners.py")
    corners = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corners)
    return corners


def test_corners_reads_both_lists():
    corners = _load_corners()
    for name in ("corners.txt", "equivalence.txt"):
        path = ROOT / "tools" / name
        lines = [line.strip() for line in path.read_text().splitlines()]
        argvs = corners.read_list(path)
        # one argv per line that is neither blank nor a comment
        assert len(argvs) == sum(1 for line in lines if line and not line.startswith("#"))
        assert all(argv and not argv[0].startswith("#") for argv in argvs)
    # shell quoting keeps a quoted scalar as one argument
    argvs = corners.read_list(ROOT / "tools" / "corners.txt")
    assert ["verify", "--n", "12", "--json"] in argvs
    assert any("(1+r)^40/(2+s)^40" in argv for argv in argvs)


def test_corners_records_the_tree_against_itself(capsys):
    corners = _load_corners()
    argvs = [["verify", "--n", "1", "--json"], ["verify", "--n", "13"]]
    rows = corners.record_commands({"parent": ROOT, "tree": ROOT}, argvs, 1)
    assert [row["command"] for row in rows] == ["rsaffine verify --n 1 --json", "rsaffine verify --n 13"]
    assert [row["identical"] for row in rows] == [True, True]
    for side in corners.SIDES:
        assert [row[side]["exit_codes"] for row in rows] == [[0], [2]]
    assert capsys.readouterr().out.count("same  ") == 2
