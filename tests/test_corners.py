"""tools/corners.py, the A/B recorder: it reads the committed command lists,
run with the working tree on both sides it records identical rows, and a
perfbench run that fails ends the recording with the failure written out."""

import importlib.util
import json
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


def test_corners_records_a_failing_perfbench_run(tmp_path, capsys):
    # a parent tree whose perfbench exits 1: the parent side runs first in
    # pair 1, so the recording stops there, before any full benchmark run
    corners = _load_corners()
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("import sys\nsys.exit('no benchmark here')\n")
    out = tmp_path / "bench.json"
    code = corners.main(["--parent", str(parent), "--perfbench", "verify", "--pairs", "3", "--out", str(out)])
    assert code == 1
    record = json.loads(out.read_text())["perfbench"]["verify"]
    assert record["failed_run"] == {"side": "parent", "pair": 1, "exit_code": 1}
    assert record["pairs"] == 0 and "pass_rel" not in record
    printed = capsys.readouterr()
    assert "the parent run exited 1" in printed.out and "no benchmark here" in printed.err
